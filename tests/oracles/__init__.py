"""Reference implementations the equivalence suites compare against."""
