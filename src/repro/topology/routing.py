"""Candidate-path enumeration between two GPUs (paper §3.1, Fig. 2b).

The model classifies intra-node paths into three kinds:

1. **Direct** — the NVLink between source and destination;
2. **GPU-staged** — two direct hops through an intermediate GPU;
3. **Host-staged** — a bounce through a DRAM staging buffer over PCIe
   (crossing UPI on NUMA-partitioned systems like Narval).

:func:`enumerate_paths` returns these as :class:`PathDescriptor` objects in
the paper's canonical order (direct, GPU-staged by device id, host last),
which is also the order Algorithm 1 initiates transfers in — the sequential
initiation correction of its Line 18 depends on this ordering.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.topology.node import NodeTopology

#: A hop is the set of fabric channels one DMA copy occupies concurrently.
Hop = tuple[str, ...]


class PathKind(enum.Enum):
    DIRECT = "direct"
    GPU_STAGED = "gpu_staged"
    HOST_STAGED = "host_staged"


@dataclass(frozen=True)
class PathDescriptor:
    """One candidate path for a (src, dst) transfer.

    ``hops`` has one entry for a direct path and two for staged paths
    (source→stage, stage→destination), mirroring the two Hockney terms of
    the model's Eq. (2).
    """

    path_id: str
    kind: PathKind
    src: int
    dst: int
    via: int | None  # staging GPU id, or None for direct / host
    hops: tuple[Hop, ...]

    def __post_init__(self) -> None:
        expected = 1 if self.kind is PathKind.DIRECT else 2
        if len(self.hops) != expected:
            raise ValueError(
                f"{self.kind.value} path must have {expected} hops, "
                f"got {len(self.hops)}"
            )

    @property
    def is_staged(self) -> bool:
        return self.kind is not PathKind.DIRECT

    def describe(self) -> str:
        hops = " => ".join("+".join(h) for h in self.hops)
        return f"{self.path_id} [{self.kind.value}] {self.src}->{self.dst}: {hops}"


def gpu_staging_candidates(topo: "NodeTopology", src: int, dst: int) -> list[int]:
    """GPUs that have direct links to both endpoints, in id order."""
    return [
        g
        for g in range(topo.num_gpus)
        if g not in (src, dst)
        and topo.has_direct(src, g)
        and topo.has_direct(g, dst)
    ]


def enumerate_paths(
    topo: "NodeTopology",
    src: int,
    dst: int,
    *,
    include_host: bool = True,
    max_gpu_staged: int | None = None,
    exclude: Iterable[str] = (),
) -> list[PathDescriptor]:
    """All candidate paths between ``src`` and ``dst`` in canonical order.

    ``max_gpu_staged`` caps the number of GPU-staged detours (the paper's
    2_GPUs / 3_GPUs configurations use 1 and 2 respectively);
    ``include_host=False`` drops the host-staged path (the paper's
    non-host configurations); ``exclude`` removes paths by id, mirroring
    the UCX environment-variable path filter of §4.
    """
    if src == dst:
        raise ValueError("src and dst must differ")
    for d in (src, dst):
        if not 0 <= d < topo.num_gpus:
            raise ValueError(f"GPU id {d} out of range 0..{topo.num_gpus - 1}")
    excluded = set(exclude)
    paths: list[PathDescriptor] = []

    if topo.has_direct(src, dst) and "direct" not in excluded:
        paths.append(
            PathDescriptor(
                path_id="direct",
                kind=PathKind.DIRECT,
                src=src,
                dst=dst,
                via=None,
                hops=(topo.direct_hop(src, dst),),
            )
        )

    candidates = gpu_staging_candidates(topo, src, dst)
    if max_gpu_staged is not None:
        candidates = candidates[:max_gpu_staged]
    for g in candidates:
        path_id = f"gpu:{g}"
        if path_id in excluded:
            continue
        paths.append(
            PathDescriptor(
                path_id=path_id,
                kind=PathKind.GPU_STAGED,
                src=src,
                dst=dst,
                via=g,
                hops=(topo.direct_hop(src, g), topo.direct_hop(g, dst)),
            )
        )

    if include_host and "host" not in excluded:
        hop1, hop2 = topo.host_hops(src, dst)
        paths.append(
            PathDescriptor(
                path_id="host",
                kind=PathKind.HOST_STAGED,
                src=src,
                dst=dst,
                via=None,
                hops=(hop1, hop2),
            )
        )

    if not paths:
        raise ValueError(f"no paths available between GPU {src} and GPU {dst}")
    return paths


def paths_label(paths: Sequence[PathDescriptor]) -> str:
    """The paper's configuration label for a path set.

    2 GPU paths -> "2_GPUs"; 3 GPU paths -> "3_GPUs"; with host ->
    "3_GPUs_w_host", etc.
    """
    with_host = any(p.kind is PathKind.HOST_STAGED for p in paths)
    # The paper counts staging GPUs + 1 (e.g. direct + 1 staged = "2_GPUs").
    n_staged = sum(1 for p in paths if p.kind is PathKind.GPU_STAGED)
    label = f"{n_staged + 1}_GPUs" if n_staged else "direct"
    return f"{label}_w_host" if with_host else label


__all__ = [
    "Hop",
    "PathKind",
    "PathDescriptor",
    "enumerate_paths",
    "gpu_staging_candidates",
    "paths_label",
]
