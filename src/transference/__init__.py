"""Two-encoder transformer translation pipeline.

Importing the package fixes the C heap's mmap and trim thresholds for the
whole process (``_keep_freed_heap``; glibc only, no float changes), so the
pages a training step, decoding step or forward pass frees stay in the
process for the next step or call."""

import ctypes
import platform

__version__ = "0.1.0"


def _keep_freed_heap() -> None:
    """Keep freed memory on the C heap for the rest of the process.

    Every model path allocates and frees arrays of similar sizes call
    after call: the tape frees each array once no backward rule reads it,
    and a decoding step frees its logits and attention products.  Under
    glibc's adaptive defaults (an mmap threshold starting at 128 KiB)
    those pages go back to the kernel and the next call faults every one
    in again.  Fixed thresholds keep arrays below 32 MiB on the heap and
    trim only above 64 MiB of free top, so calls reuse the same pages."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)   # M_TRIM_THRESHOLD


_keep_freed_heap()
