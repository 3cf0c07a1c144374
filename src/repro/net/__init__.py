"""Real-network runtimes: TCP FLStore servers and the socket-routed pipeline."""

from .aio_runtime import AioRuntime
from .binary_codec import (
    BINARY_MAGIC,
    decode_message_binary,
    decode_value_binary,
    encode_message_binary,
    encode_value_binary,
)
from .client import AsyncFLStoreClient
from .deploy import FLStoreNetDeployment
from .server import ControllerServer, IndexerServer, MaintainerServer

__all__ = [
    "AioRuntime",
    "AsyncFLStoreClient",
    "BINARY_MAGIC",
    "ControllerServer",
    "FLStoreNetDeployment",
    "IndexerServer",
    "MaintainerServer",
    "decode_message_binary",
    "decode_value_binary",
    "encode_message_binary",
    "encode_value_binary",
]
