"""Checks made outside the program: an independent cache model and result identities.

The reference model is a plain two-level LRU hierarchy with the paper's
Table 1 geometry (64 KB 2-way L1D, 1 MB 8-way L2, 64-byte blocks), written
from the paper rather than from the program's cache code.  Every L1 miss
looks up the L2; writes allocate like reads and write-backs are not
modelled, which is what the program's baseline hierarchy does too.  It
replays a trace's address column once and keeps the running miss counts,
so the baseline counts of any prefix of the trace are read off in O(1).
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Tuple

BLOCK_BYTES = 64
L1_GEOMETRY = (64 * 1024, 2)
L2_GEOMETRY = (1024 * 1024, 8)


class LRUReference:
    """Running baseline L1/L2 miss counts of one address stream."""

    def __init__(
        self,
        addresses: Iterable[int],
        l1: Tuple[int, int] = L1_GEOMETRY,
        l2: Tuple[int, int] = L2_GEOMETRY,
        block_bytes: int = BLOCK_BYTES,
    ) -> None:
        shift = block_bytes.bit_length() - 1
        l1_sets, l1_ways = _sets(l1, block_bytes), l1[1]
        l2_sets, l2_ways = _sets(l2, block_bytes), l2[1]
        level1: List[OrderedDict] = [OrderedDict() for _ in range(l1_sets)]
        level2: List[OrderedDict] = [OrderedDict() for _ in range(l2_sets)]
        # l1[i] / l2[i]: misses among the first i accesses.
        self._l1 = array("q", [0])
        self._l2 = array("q", [0])
        l1_misses = l2_misses = 0
        for address in addresses:
            block = address >> shift
            ways = level1[block % l1_sets]
            if block in ways:
                ways.move_to_end(block)
            else:
                l1_misses += 1
                ways[block] = None
                if len(ways) > l1_ways:
                    ways.popitem(last=False)
                ways = level2[block % l2_sets]
                if block in ways:
                    ways.move_to_end(block)
                else:
                    l2_misses += 1
                    ways[block] = None
                    if len(ways) > l2_ways:
                        ways.popitem(last=False)
            self._l1.append(l1_misses)
            self._l2.append(l2_misses)

    def __len__(self) -> int:
        return len(self._l1) - 1

    def misses(self, num_accesses: int) -> Tuple[int, int]:
        """Baseline (L1, L2) misses over the first ``num_accesses`` accesses."""
        if not 0 <= num_accesses <= len(self):
            raise ValueError(f"the reference covers {len(self)} accesses, not {num_accesses}")
        return self._l1[num_accesses], self._l2[num_accesses]


def _sets(geometry: Tuple[int, int], block_bytes: int) -> int:
    size, ways = geometry
    return size // block_bytes // ways


def check_trace_result(result: Dict[str, Any], reference: LRUReference, what: str) -> List[str]:
    """Errors in one trace-driven result (``SimulationResult.to_dict`` form)."""
    errors = []
    l1, l2 = reference.misses(result["num_accesses"])
    if (result["baseline_l1_misses"], result["baseline_l2_misses"]) != (l1, l2):
        errors.append(
            f"{what}: baseline misses {result['baseline_l1_misses']}/{result['baseline_l2_misses']}"
            f" != reference {l1}/{l2}"
        )
    breakdown = result["breakdown"]
    if breakdown["base_misses"] != result["baseline_l1_misses"]:
        errors.append(f"{what}: breakdown.base_misses {breakdown['base_misses']} != baseline_l1_misses")
    expected = breakdown["base_misses"] - breakdown["correct"] + breakdown["early"]
    if result["predictor_l1_misses"] != expected:
        errors.append(
            f"{what}: predictor_l1_misses {result['predictor_l1_misses']} != "
            f"base_misses - correct + early = {expected}"
        )
    base_data = result["bus_bytes"].get("base data", 0)
    if base_data != BLOCK_BYTES * result["baseline_l2_misses"]:
        errors.append(
            f"{what}: bus_bytes['base data'] {base_data} != 64 * baseline_l2_misses"
        )
    return errors


def check_timing_baseline(result: Dict[str, Any], reference: LRUReference, what: str) -> List[str]:
    """Errors in a timing result of the plain baseline (no predictor, Table 1 L2)."""
    l1, l2 = reference.misses(result["accesses"])
    if (result["l1_misses"], result["l2_misses"]) != (l1, l2):
        return [f"{what}: baseline misses {result['l1_misses']}/{result['l2_misses']} != reference {l1}/{l2}"]
    return []


def check_same(fresh: Dict[str, Any], other: Dict[str, Any], what: str) -> List[str]:
    """Errors when two encodings of one point's result differ."""
    if fresh != other:
        keys = sorted(k for k in set(fresh) | set(other) if fresh.get(k) != other.get(k))
        return [f"{what}: results differ in {', '.join(keys)}"]
    return []
