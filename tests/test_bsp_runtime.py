"""Unit tests for the executable BSP runtime (real computation)."""

import sys

import pytest

from repro.bsp.drma import Registers, UnregisteredVariable
from repro.bsp.messages import MessageBuffers
from repro.bsp.runtime import BspError, run_bsp


class TestMessageBuffers:
    def test_messages_visible_after_exchange(self):
        buffers = MessageBuffers(2)
        buffers.send(0, 1, "hello")
        assert buffers.inbox(1) == []
        buffers.exchange()
        assert buffers.inbox(1) == ["hello"]

    def test_double_buffering(self):
        buffers = MessageBuffers(2)
        buffers.send(0, 1, "first")
        buffers.exchange()
        buffers.send(0, 1, "second")
        assert buffers.inbox(1) == ["first"]
        buffers.exchange()
        assert buffers.inbox(1) == ["second"]

    def test_delivery_sorted_by_sender(self):
        buffers = MessageBuffers(3)
        buffers.send(2, 0, "from2")
        buffers.send(1, 0, "from1")
        buffers.exchange()
        assert buffers.inbox(0) == ["from1", "from2"]

    def test_bad_destination(self):
        with pytest.raises(ValueError):
            MessageBuffers(2).send(0, 5, "x")

    def test_byte_accounting(self):
        buffers = MessageBuffers(2)
        buffers.send(0, 1, b"x" * 100)
        buffers.send(0, 1, 3.14)
        assert buffers.bytes_estimate == 108
        assert buffers.messages_sent == 2
        assert buffers.orb_calls == 2
        assert buffers.wire_bytes == 108 + 2 * 64

    @pytest.mark.parametrize("sender", [-1, -4, 4, 7])
    def test_bad_sender(self, sender):
        # A negative pid must not index from the end: -1 is not pid 3.
        buffers = MessageBuffers(4)
        with pytest.raises(ValueError, match="sender pid"):
            buffers.send(sender, 0, "x")
        buffers.exchange()
        assert buffers.inbox(0) == []
        assert buffers.messages_sent == 0


class TestRegisters:
    def test_put_applies_at_sync(self):
        regs = Registers(2)
        regs.register(0, "x", 0)
        regs.put(1, 0, "x", 42)
        assert regs.local_read(0, "x") == 0
        regs.synchronize()
        assert regs.local_read(0, "x") == 42

    def test_get_reads_snapshot(self):
        regs = Registers(2)
        regs.register(0, "x", 1)
        regs.synchronize()
        regs.local_write(0, "x", 2)
        assert regs.get(0, "x") == 1     # snapshot, not live value
        regs.synchronize()
        assert regs.get(0, "x") == 2

    def test_get_returns_copy(self):
        regs = Registers(1)
        regs.register(0, "xs", [1, 2])
        regs.synchronize()
        regs.get(0, "xs").append(99)
        assert regs.get(0, "xs") == [1, 2]

    def test_unregistered_access(self):
        regs = Registers(1)
        with pytest.raises(UnregisteredVariable):
            regs.local_read(0, "ghost")
        with pytest.raises(UnregisteredVariable):
            regs.get(0, "ghost")

    def test_put_to_unregistered_fails_at_sync(self):
        regs = Registers(2)
        regs.put(0, 1, "ghost", 1)
        with pytest.raises(UnregisteredVariable):
            regs.synchronize()

    @pytest.mark.parametrize("pid", [-1, -3, 3])
    def test_bad_writer_and_register_pid(self, pid):
        regs = Registers(3)
        regs.register(0, "x", 0)
        with pytest.raises(ValueError, match="writer pid"):
            regs.put(pid, 0, "x", 1)
        with pytest.raises(ValueError, match="pid"):
            regs.register(pid, "y", 0)
        regs.synchronize()
        assert regs.drma_calls == 0
        assert regs.local_read(0, "x") == 0
        with pytest.raises(UnregisteredVariable):
            regs.local_read(2, "y")

    def test_put_and_get_never_alias_mutable_values(self):
        regs = Registers(2)
        regs.register(0, "xs", [0])
        regs.register(0, "d", {})
        xs, d = [1, 2], {"k": [1]}
        regs.put(1, 0, "xs", xs)
        regs.put(1, 0, "d", d)
        xs.append(3)
        d["k"].append(2)
        d["new"] = 1
        regs.synchronize()
        assert regs.local_read(0, "xs") == [1, 2]
        assert regs.local_read(0, "d") == {"k": [1]}
        got = regs.get(0, "d")
        got["k"].append(99)
        got["other"] = 0
        regs.get(0, "xs").clear()
        assert regs.get(0, "d") == {"k": [1]}
        assert regs.get(0, "xs") == [1, 2]
        assert regs.local_read(0, "d") == {"k": [1]}

    def test_subclasses_and_tuples_are_still_copied(self):
        class Tagged(list):
            pass

        regs = Registers(2)
        regs.register(0, "t", None)
        regs.register(0, "nested", None)
        tagged, nested = Tagged([1]), (1, [2])
        regs.put(1, 0, "t", tagged)
        regs.put(1, 0, "nested", nested)
        tagged.append(2)
        nested[1].append(3)
        regs.synchronize()
        assert regs.local_read(0, "t") == [1]
        assert type(regs.local_read(0, "t")) is Tagged
        assert regs.local_read(0, "nested") == (1, [2])
        regs.get(0, "nested")[1].append(4)
        assert regs.get(0, "nested") == (1, [2])

    def test_immutable_scalars_pass_uncopied(self):
        regs = Registers(2)
        text = "état " * 10
        regs.register(0, "s", text)
        regs.put(1, 0, "s", text)
        regs.synchronize()
        assert regs.get(0, "s") is text

    def test_puts_applied_in_writer_order(self):
        regs = Registers(3)
        regs.register(0, "x", 0)
        regs.put(2, 0, "x", 222)
        regs.put(1, 0, "x", 111)
        regs.synchronize()
        assert regs.local_read(0, "x") == 222   # writer 2 applies last


class TestRunBsp:
    def test_parallel_sum(self):
        def program(bsp, n):
            lo = bsp.pid * n // bsp.nprocs
            hi = (bsp.pid + 1) * n // bsp.nprocs
            bsp.send(0, sum(range(lo, hi)))
            bsp.sync()
            if bsp.pid == 0:
                return sum(bsp.messages())
            return None

        run = run_bsp(4, program, 1000)
        assert run.results[0] == sum(range(1000))
        assert run.supersteps >= 1
        assert run.messages_sent == 4

    def test_single_process(self):
        run = run_bsp(1, lambda bsp: bsp.pid)
        assert run.results == [0]

    def test_all_pids_distinct(self):
        run = run_bsp(8, lambda bsp: (bsp.pid, bsp.nprocs))
        assert run.results == [(i, 8) for i in range(8)]

    def test_drma_broadcast(self):
        def program(bsp):
            bsp.register("value", None)
            if bsp.pid == 0:
                for other in range(bsp.nprocs):
                    bsp.put(other, "value", 42)
            bsp.sync()
            return bsp.read("value")

        run = run_bsp(4, program)
        assert run.results == [42] * 4
        assert run.puts_applied == 4

    def test_multi_superstep_ring(self):
        # Pass a token around a ring; after nprocs supersteps it is home.
        def program(bsp):
            token = bsp.pid
            for _ in range(bsp.nprocs):
                bsp.send((bsp.pid + 1) % bsp.nprocs, token)
                bsp.sync()
                (token,) = bsp.messages()
            return token

        run = run_bsp(4, program)
        assert run.results == [0, 1, 2, 3]
        assert run.supersteps >= 4

    def test_uneven_sync_counts_are_handled(self):
        # pid 0 needs one extra superstep; the engine drains the others.
        def program(bsp):
            bsp.send(0, bsp.pid)
            bsp.sync()
            if bsp.pid == 0:
                total = sum(bsp.messages())
                bsp.sync()
                return total
            return None

        run = run_bsp(4, program)
        assert run.results[0] == 0 + 1 + 2 + 3

    def test_process_exception_aborts_run(self):
        def program(bsp):
            if bsp.pid == 1:
                raise ValueError("boom")
            bsp.sync()
            return bsp.pid

        with pytest.raises(BspError) as excinfo:
            run_bsp(3, program)
        assert "pid 1" in str(excinfo.value)
        assert "boom" in str(excinfo.value)

    def test_deterministic_message_order(self):
        def program(bsp):
            if bsp.pid != 0:
                bsp.send(0, bsp.pid)
            bsp.sync()
            if bsp.pid == 0:
                return bsp.messages()
            return None

        for _ in range(5):
            run = run_bsp(6, program)
            assert run.results[0] == [1, 2, 3, 4, 5]

    def test_matrix_vector_product(self):
        import random
        n = 8
        rng = random.Random(1)
        matrix = [[rng.randint(0, 9) for _ in range(n)] for _ in range(n)]
        vector = [rng.randint(0, 9) for _ in range(n)]
        expected = [
            sum(matrix[i][j] * vector[j] for j in range(n)) for i in range(n)
        ]

        def program(bsp, matrix, vector):
            rows = range(
                bsp.pid * n // bsp.nprocs, (bsp.pid + 1) * n // bsp.nprocs
            )
            partial = {
                i: sum(matrix[i][j] * vector[j] for j in range(n))
                for i in rows
            }
            bsp.send(0, partial)
            bsp.sync()
            if bsp.pid == 0:
                merged = {}
                for part in bsp.messages():
                    merged.update(part)
                return [merged[i] for i in range(n)]
            return None

        run = run_bsp(4, program, matrix, vector)
        assert run.results[0] == expected

    def test_invalid_nprocs(self):
        with pytest.raises(ValueError):
            run_bsp(0, lambda bsp: None)


class TestCallAccounting:
    """One BSMP message or DRMA access is one ORB call, always."""

    @staticmethod
    def _program(bsp):
        peers = [(bsp.pid + k + 1) % bsp.nprocs for k in range(2)]
        bsp.register("acc", 0.0)
        total = 0.0
        for step in range(3):
            for peer in peers:
                bsp.send(peer, [float(bsp.pid), float(step)])
                bsp.send(peer, [float(bsp.pid), float(step + 10)])
                bsp.put(peer, "acc", float(bsp.pid + step))
            bsp.sync()
            total += sum(m[0] for m in bsp.messages())
            total += sum(bsp.get(p, "acc") for p in peers)
        return total

    def test_one_call_per_message_and_per_drma_access(self):
        run = run_bsp(6, self._program)
        # 6 pids x 2 peers x 2 msgs x 3 steps
        assert run.orb_calls == run.messages_sent == 6 * 2 * 2 * 3
        # puts: 6 x 2 x 3; gets: 6 x 2 x 3
        assert run.drma_calls == 6 * 2 * 3 + 6 * 2 * 3
        # Two floats in a list: 4 + 2 x 8 payload bytes + 64 of framing.
        assert run.wire_bytes == run.orb_calls * (64 + 20)

    def test_counters_exact_under_frequent_thread_switches(self):
        # Every process thread bumps the shared counters; a counter read
        # before a call and written after it loses the other threads'
        # bumps once the interpreter switches threads inside the call.
        nprocs, sends, steps = 16, 3000, 3

        def program(bsp):
            bsp.register("acc", 0.0)
            bsp.sync()
            for step in range(steps):
                for i in range(sends // steps):
                    bsp.send((bsp.pid + i) % nprocs, [float(i), float(step)])
                    if i % 10 == 0:
                        bsp.put((bsp.pid + 1) % nprocs, "acc", float(i))
                        bsp.get((bsp.pid + 2) % nprocs, "acc")
                bsp.sync()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run = run_bsp(nprocs, program)
        finally:
            sys.setswitchinterval(interval)
        messages = nprocs * sends
        assert run.messages_sent == run.orb_calls == messages
        assert run.comm_bytes == messages * 20
        assert run.wire_bytes == messages * (64 + 20)
        assert run.drma_calls == nprocs * 2 * steps * (sends // steps // 10)
