"""A lightweight CORBA-style ORB, in the spirit of UIC-CORBA.

The original InteGrade prototype ran its LRM on UIC-CORBA (a 90 KB
C++ ORB) and its GRM on JacORB, storing offers in the JacORB Trader.
This package is the Python substitute: typed interface definitions,
CDR-flavoured binary marshalling, stringifiable object references,
direct dispatch between collocated ORBs (used by the simulator: exact
message counts, no marshalling; a :class:`WireMeter` prices requests in
wire bytes for whoever reports them), an in-process transport for
auth-enveloped requests and a TCP transport (real sockets, exercised by
the integration tests), plus Naming and Trading services.
"""

from repro.orb.exceptions import (
    CommunicationError,
    MarshalError,
    ObjectNotFound,
    OrbError,
    RemoteInvocationError,
)
from repro.orb.idl import InterfaceDef, Operation, Parameter
from repro.orb.cdr import (
    Boolean,
    CdrDecoder,
    CdrEncoder,
    Double,
    Enum,
    Long,
    LongLong,
    Octets,
    Sequence,
    String,
    Struct,
    ULong,
    Union,
    Variant,
    Void,
)
from repro.orb.ior import ObjectRef
from repro.orb.core import Orb, WireMeter
from repro.orb.naming import NamingService, NAMING_INTERFACE
from repro.orb.trading import TradingService, TRADING_INTERFACE, Offer

__all__ = [
    "OrbError",
    "MarshalError",
    "ObjectNotFound",
    "CommunicationError",
    "RemoteInvocationError",
    "InterfaceDef",
    "Operation",
    "Parameter",
    "CdrEncoder",
    "CdrDecoder",
    "Void",
    "Boolean",
    "Long",
    "ULong",
    "LongLong",
    "Double",
    "String",
    "Octets",
    "Sequence",
    "Struct",
    "Enum",
    "Union",
    "Variant",
    "ObjectRef",
    "Orb",
    "WireMeter",
    "NamingService",
    "NAMING_INTERFACE",
    "TradingService",
    "TRADING_INTERFACE",
    "Offer",
]
