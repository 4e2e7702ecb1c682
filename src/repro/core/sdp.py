"""Sum-of-disjoint-products (SDP) evaluation of coherent structures.

The exact evaluators in :mod:`repro.core.structure` walk the state space —
either all ``2**n`` states or a Shannon factoring of them — which is the
right tool up to a few tens of components and hopeless past that.  The
classic way out (Abraham 1979, the workhorse of network-reliability codes)
starts from the system's *minimal path sets* instead: the up event is the
union of "all elements of path ``i`` up" events, and rewriting that union
as a sum of **mutually disjoint** products makes exact availability a plain
sum over terms, each a product of element availabilities and element
*un*availabilities.

Two properties make the rewrite a kernel worth compiling once and reusing:

* the disjoint terms depend only on the path sets, **not** on the element
  probabilities — one compile serves every availability vector, which is
  what the batched sweeps in :mod:`repro.network.batch` exploit; and
* each term is a run of indices into one factor vector, so evaluation is
  a gather plus a segmented product.

The disjointing here is Abraham's single-variable inversion: paths are
ordered shortest-first (the early-termination ordering — short paths carry
the bulk of the probability and generate the fewest complements), and each
path's term is split against every earlier path it does not already miss.
The loop runs on integer bitmasks and emits each finished term straight
into an :class:`SdpKernel`: one flat gather-index array into the factor
vector ``[p_0..p_{n-1}, 1-p_0..1-p_{n-1}, 1.0]`` (elements in sorted-name
order) plus one start offset per term.  Every term ends in the trailing
``1.0`` sentinel, so no segment is empty and availability is one gather,
one ``np.multiply.reduceat`` and one sum — multiplying in a fixed order,
so the result does not depend on the interpreter's string-hash seed.  A
``two_tier`` switch's ~8.6k terms take ~3.4 MiB as index arrays, against
~25 MiB as frozenset pairs.

Compiles are memoized on the canonical path-set tuple (:func:`sdp_kernel`),
so repeated compiles of the same structure share work.  The
:class:`SdpTerm` view (:func:`sdp_terms`, :attr:`SdpExpression.terms`) is
decoded from the kernel on demand for tests and diagnostics; evaluation
never builds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import AbstractSet, Iterable, Mapping

import numpy as np

from repro.errors import ModelError
from repro.units import check_probability

__all__ = [
    "SdpTerm",
    "SdpKernel",
    "SdpExpression",
    "canonical_path_sets",
    "factor_layout",
    "term_products",
    "sdp_kernel",
    "sdp_terms",
    "compile_sdp",
]


@dataclass(frozen=True)
class SdpTerm:
    """One disjoint product: every ``up`` element up, every ``down`` down.

    The term's probability is ``prod(p[e] for e in up) * prod(1 - p[e] for
    e in down)``; across an :class:`SdpExpression` the terms' events are
    pairwise disjoint and their union is the system-up event.  A decoded
    view of one :class:`SdpKernel` term, for tests and diagnostics.
    """

    up: frozenset[str]
    down: frozenset[str]


def canonical_path_sets(
    path_sets: Iterable[AbstractSet[str]],
) -> tuple[frozenset[str], ...]:
    """Deduplicated, minimality-filtered, deterministically ordered paths.

    Supersets of other path sets are dropped (they cannot change the union
    and only inflate the term count), then paths are ordered shortest-first
    with a lexicographic tie-break — Abraham's early-termination ordering,
    which both fixes the expansion deterministically and keeps it small.
    """
    unique = {frozenset(path) for path in path_sets}
    minimal = [
        path
        for path in unique
        if not any(other < path for other in unique)
    ]
    return tuple(
        sorted(minimal, key=lambda path: (len(path), tuple(sorted(path))))
    )


def factor_layout(availability: np.ndarray) -> np.ndarray:
    """``[p, 1 - p, 1.0]`` stacked along the first (element) axis.

    The factor vector every compiled term's gather indices point into.  A
    2-D ``availability`` (elements x scenarios) yields one factor column
    per scenario, so the same indices evaluate every scenario at once.
    """
    availability = np.asarray(availability, dtype=float)
    n = len(availability)
    factors = np.empty((2 * n + 1, *availability.shape[1:]))
    factors[:n] = availability
    np.subtract(1.0, availability, out=factors[n:-1])
    factors[-1] = 1.0
    return factors


def term_products(
    factors: np.ndarray, indices: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Per-term products of ``factors[indices]`` split at ``starts``.

    Term ``j`` multiplies the gathered factors from ``starts[j]`` up to the
    next start, in index order, along the first axis.  Every segment must
    be non-empty, which the compiled kernels guarantee by ending each term
    in the ``1.0`` sentinel.
    """
    return np.multiply.reduceat(factors[indices], starts)


@dataclass(frozen=True, eq=False)
class SdpKernel:
    """Disjoint products of one canonical path-set tuple, as index arrays.

    Attributes:
        names: every element appearing in any path, sorted; element ``i``
            owns factor ``i`` (``p_i``) and factor ``n + i`` (``1 - p_i``)
            of :func:`factor_layout`, and factor ``2n`` is the ``1.0``
            sentinel.
        indices: every term's factor indices, concatenated — up elements
            ascending, then down elements ascending, then the sentinel.
        starts: the offset of each term's first index in ``indices``.
    """

    names: tuple[str, ...]
    indices: np.ndarray
    starts: np.ndarray

    @property
    def term_count(self) -> int:
        return len(self.starts)

    def remap(self, columns: Iterable[int], width: int) -> np.ndarray:
        """``indices`` re-pointed at a wider :func:`factor_layout`.

        The ``i``-th of ``columns`` is element ``names[i]``'s position
        among the ``width`` elements of the wider layout; each term keeps
        its factors in the same order.
        """
        local = np.fromiter(columns, dtype=np.intp, count=len(self.names))
        lookup = np.concatenate((local, local + width, [2 * width]))
        return lookup[self.indices]


@lru_cache(maxsize=4096)
def sdp_kernel(paths: tuple[frozenset[str], ...]) -> SdpKernel:
    """Compile an ordered minimal-path-set tuple into an :class:`SdpKernel`.

    ``paths`` must already be canonical (see :func:`canonical_path_sets`) —
    the memo key is the tuple itself.  Term ``i``'s event is "path ``i``
    works and every earlier path fails"; summed over ``i`` these partition
    the system-up event, so availability is the plain sum of term
    probabilities.

    For each earlier path ``P_j`` and current partial term ``(U, D)``:

    * if ``P_j`` hits ``D``, the term already implies ``P_j`` fails — keep;
    * if ``P_j`` is contained in ``U``, the term implies ``P_j`` works —
      the term is impossible, drop it;
    * otherwise split on the elements ``R = P_j - U`` with single-variable
      inversion: "some element of R down" becomes the disjoint sum over
      ``k`` of "r_1..r_{k-1} up and r_k down".

    The loop runs on integer bitmasks (bit ``i`` = the ``i``-th element in
    sorted-name order).  Each finished term is packed into one integer
    whose set bits are exactly its factor indices — ``U``, then ``D``
    shifted by ``n``, then the sentinel bit ``2n`` — and the packed terms
    are unpacked into the flat index array in one numpy pass.
    """
    names = tuple(sorted({name for path in paths for name in path}))
    n = len(names)
    bit_of = {name: 1 << i for i, name in enumerate(names)}
    masks = [sum(bit_of[name] for name in path) for path in paths]
    sentinel = 1 << (2 * n)

    packed: list[int] = []
    for index, path_mask in enumerate(masks):
        partial: list[tuple[int, int]] = [(path_mask, 0)]
        for previous in masks[:index]:
            if not partial:
                break
            split: list[tuple[int, int]] = []
            for up, down in partial:
                if previous & down:
                    split.append((up, down))
                    continue
                rest = previous & ~up
                if not rest:
                    continue  # previous path works whenever this term holds
                while rest:
                    low = rest & -rest
                    rest ^= low
                    split.append((up, down | low))
                    up |= low
            partial = split
        packed.extend(up | (down << n) | sentinel for up, down in partial)

    width = (2 * n + 8) // 8
    raw = b"".join(code.to_bytes(width, "little") for code in packed)
    bits = np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8).reshape(len(packed), width),
        axis=1,
        count=2 * n + 1,
        bitorder="little",
    )
    lengths = bits.sum(axis=1, dtype=np.intp)
    return SdpKernel(
        names=names,
        indices=np.flatnonzero(bits) % (2 * n + 1),
        starts=np.cumsum(lengths) - lengths,
    )


@lru_cache(maxsize=4096)
def sdp_terms(
    paths: tuple[frozenset[str], ...],
) -> tuple[SdpTerm, ...]:
    """The :class:`SdpTerm` view of :func:`sdp_kernel`'s terms (memoized).

    Decoded from the kernel's index arrays, in term order; for tests and
    diagnostics only — evaluation runs on the kernel.
    """
    kernel = sdp_kernel(paths)
    names, n = kernel.names, len(kernel.names)
    flat = kernel.indices.tolist()
    bounds = [*kernel.starts.tolist(), len(flat)]
    return tuple(
        SdpTerm(
            up=frozenset(names[i] for i in flat[a:b] if i < n),
            down=frozenset(names[i - n] for i in flat[a:b] if n <= i < 2 * n),
        )
        for a, b in zip(bounds, bounds[1:])
    )


@dataclass(frozen=True)
class SdpExpression:
    """A compiled sum-of-disjoint-products over named elements.

    Attributes:
        paths: the canonical minimal path sets the expression was compiled
            from (shortest-first).
        kernel: the memoized disjoint products as index arrays;
            availability is the sum of their probabilities.
    """

    paths: tuple[frozenset[str], ...]
    kernel: SdpKernel

    @property
    def names(self) -> tuple[str, ...]:
        """Every element appearing in any path, in sorted order."""
        return self.kernel.names

    @property
    def term_count(self) -> int:
        return self.kernel.term_count

    @property
    def terms(self) -> tuple[SdpTerm, ...]:
        """The disjoint products as :class:`SdpTerm` pairs (memoized view)."""
        return sdp_terms(self.paths)

    def _check(self, probabilities: Mapping[str, float]) -> list[float]:
        """Validated probabilities in :attr:`names` order."""
        values = []
        for name in self.names:
            if name not in probabilities:
                raise ModelError(
                    f"missing probability for component {name!r}"
                )
            values.append(check_probability(probabilities[name], name))
        return values

    def availability(self, probabilities: Mapping[str, float]) -> float:
        """Exact system availability: the sum of disjoint term probabilities."""
        # The factor_layout vector, assembled from Python floats and
        # converted in one call: most switches compile to a handful of
        # terms, where numpy's per-call overhead outweighs the products.
        values = self._check(probabilities)
        values += [1.0 - value for value in values]
        values.append(1.0)
        kernel = self.kernel
        products = term_products(np.array(values), kernel.indices, kernel.starts)
        return min(1.0, max(0.0, float(np.add.reduce(products))))

    def unavailability(self, probabilities: Mapping[str, float]) -> float:
        return 1.0 - self.availability(probabilities)


def compile_sdp(path_sets: Iterable[AbstractSet[str]]) -> SdpExpression:
    """Compile minimal path sets into a reusable disjoint-products expression.

    An empty path-set collection is legal and yields the always-down system
    (availability 0) — the network layer hits this when a switch has no
    route to any controller site.
    """
    paths = canonical_path_sets(path_sets)
    for path in paths:
        if not path:
            raise ModelError(
                "an empty path set would make the system always up; "
                "refusing to compile a degenerate SDP"
            )
    return SdpExpression(paths=paths, kernel=sdp_kernel(paths))
