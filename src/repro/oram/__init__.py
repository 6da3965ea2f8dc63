"""Path ORAM substrate: functional controller, recursion, integrity, timing.

This package implements the ORAM machinery the paper builds on (Section 3):
the binary-tree Path ORAM protocol with stash and position map, recursive
position maps, probabilistic bucket encryption, the untrusted-memory view
an adversary probes, Merkle integrity as an extension, and the derivation
of the per-access latency/bandwidth/energy constants the evaluation uses.
"""

from repro._lazy import lazy_exports

#: Public name -> the module that defines it, in ``__all__`` order.  A
#: submodule is imported only when one of its names is first looked up.
_EXPORTS = {
    "UntrustedMemory": "repro.oram.backend",
    "BackgroundEvictingORAM": "repro.oram.background_eviction",
    "EvictionStats": "repro.oram.background_eviction",
    "Block": "repro.oram.block",
    "DUMMY_ADDRESS": "repro.oram.block",
    "ORAMConfig": "repro.oram.config",
    "PAPER_ORAM_CONFIG": "repro.oram.config",
    "TEST_ORAM_CONFIG": "repro.oram.config",
    "TreeGeometry": "repro.oram.config",
    "CHUNK_BYTES": "repro.oram.encryption",
    "NullCipher": "repro.oram.encryption",
    "ProbabilisticCipher": "repro.oram.encryption",
    "chunk_count": "repro.oram.encryption",
    "BatchedPathORAM": "repro.oram.engine",
    "MerkleTree": "repro.oram.integrity",
    "TamperDetectedError": "repro.oram.integrity",
    "VerifiedPathORAM": "repro.oram.integrity",
    "AccessStats": "repro.oram.path_oram",
    "PathORAM": "repro.oram.path_oram",
    "assign_levels": "repro.oram.path_oram",
    "default_payload": "repro.oram.path_oram",
    "digest_state": "repro.oram.path_oram",
    "make_path_oram": "repro.oram.path_oram",
    "normalize_payloads": "repro.oram.path_oram",
    "percentiles_from_histogram": "repro.oram.path_oram",
    "FlatPositionMap": "repro.oram.position_map",
    "RecursivePathORAM": "repro.oram.recursion",
    "Stash": "repro.oram.stash",
    "StashOverflowError": "repro.oram.stash",
    "DramLinkParameters": "repro.oram.timing",
    "ORAMTiming": "repro.oram.timing",
    "PAPER_ORAM_TIMING": "repro.oram.timing",
    "derive_timing": "repro.oram.timing",
    "paper_timing": "repro.oram.timing",
    "timing_from_counts": "repro.oram.timing",
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
