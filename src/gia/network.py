"""Network model: configuration, alignment set, random channels, config files.

Node indices are 1-based throughout the public surface, matching standard
usage: receivers are ``1..K`` and transmitters are ``1..K+J`` (the K
legitimate transmitters first, then the J jammers).  Per-node tuples are
stored densely, so the entry for node ``k`` lives at index ``k - 1``.

A configuration is checked once, when it is built: a :class:`NetworkConfig`
that exists is valid, so nothing downstream checks it again.  A channel state
is a plain dict mapping each (receiver, transmitter) pair ``(k, j)`` - direct
links included - to an ``N_k x M_j`` complex matrix.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "ConfigError",
    "ConfigParseError",
    "NetworkConfig",
    "TransceiverSet",
    "Pair",
    "Channel",
    "check_transceivers",
    "alignment_all",
    "canonical_alignment",
    "free_shapes",
    "Problem",
    "scale_config",
    "generate_channel",
    "save_config",
    "load_config",
]

Pair = tuple[int, int]
Channel = dict[Pair, np.ndarray]

MAX_SEED = 2**64 - 1


class ConfigError(ValueError):
    """A network configuration or alignment set violates its invariants."""


class ConfigParseError(ConfigError):
    """A config file could not be parsed; the message names the line."""


def _index(value, name: str, error=ConfigError) -> int:
    """``value`` as an int: ints and numpy integers pass, anything else raises ``error``."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class NetworkConfig:
    """Dimensions of the legitimate network, checked once when built.

    Construction coerces the fields to ints, rejecting non-integers such as
    floats, and raises :class:`ConfigError` naming the offender unless
    ``K >= 1``, ``J >= 0``, the tuples have the right lengths, every count is
    positive, ``d_j <= M_j`` and ``d_k <= N_k``.

    Attributes
    ----------
    K : int
        Number of transmitter-receiver pairs.
    J : int
        Number of jammer transmitters (no paired receiver).
    M : tuple of int
        Transmit antennas, one per transmitter ``1..K+J``.
    N : tuple of int
        Receive antennas, one per receiver ``1..K``.
    d : tuple of int
        Data streams, one per transmitter ``1..K+J``.
    """

    K: int
    J: int
    M: tuple[int, ...]
    N: tuple[int, ...]
    d: tuple[int, ...]

    def __post_init__(self):
        for name in ("K", "J"):
            object.__setattr__(self, name, _index(getattr(self, name), name))
        for name in ("M", "N", "d"):
            object.__setattr__(self, name, tuple(
                _index(x, f"{name}_{i}") for i, x in enumerate(getattr(self, name), start=1)))
        if self.K < 1:
            raise ConfigError(f"K must be positive, got {self.K}")
        if self.J < 0:
            raise ConfigError(f"J must be nonnegative, got {self.J}")
        if len(self.M) != self.n_tx:
            raise ConfigError(f"M must list K+J={self.n_tx} values, got {len(self.M)}")
        if len(self.d) != self.n_tx:
            raise ConfigError(f"d must list K+J={self.n_tx} values, got {len(self.d)}")
        if len(self.N) != self.K:
            raise ConfigError(f"N must list K={self.K} values, got {len(self.N)}")
        for j in range(1, self.n_tx + 1):
            if self.M[j - 1] < 1:
                raise ConfigError(f"M_{j} must be positive, got {self.M[j - 1]}")
            if self.d[j - 1] < 1:
                raise ConfigError(f"d_{j} must be positive, got {self.d[j - 1]}")
            if self.d[j - 1] > self.M[j - 1]:
                raise ConfigError(f"d_{j}={self.d[j - 1]} exceeds transmit antennas M_{j}={self.M[j - 1]}")
        for k in range(1, self.K + 1):
            if self.N[k - 1] < 1:
                raise ConfigError(f"N_{k} must be positive, got {self.N[k - 1]}")
            if self.d[k - 1] > self.N[k - 1]:
                raise ConfigError(f"d_{k}={self.d[k - 1]} exceeds receive antennas N_{k}={self.N[k - 1]}")

    @property
    def n_tx(self) -> int:
        """Total number of transmitters, ``K + J``."""
        return self.K + self.J


@dataclass(frozen=True, eq=False)
class TransceiverSet:
    """Decoders ``U[k-1]`` (``N_k x d_k``) and precoders ``V[j-1]`` (``M_j x d_j``).

    This is the package's one transceiver type.  The free variables of the
    normalized form ``U_k = [I; U~_k]``, ``V_j = [I; V~_j]`` are the views
    ``U[k-1][d_k:]`` and ``V[j-1][d_j:]``; see :func:`free_shapes`.
    """

    U: tuple[np.ndarray, ...]
    V: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "U", tuple(np.asarray(u, dtype=np.complex128) for u in self.U))
        object.__setattr__(self, "V", tuple(np.asarray(v, dtype=np.complex128) for v in self.V))

    @classmethod
    def identity(cls, cfg: NetworkConfig) -> TransceiverSet:
        """``U_k = [I; 0]`` and ``V_j = [I; 0]``: every free block is zero."""
        return cls(tuple(np.eye(n, d, dtype=np.complex128) for n, d in zip(cfg.N, cfg.d)),
                   tuple(np.eye(m, d, dtype=np.complex128) for m, d in zip(cfg.M, cfg.d)))


def alignment_all(cfg: NetworkConfig) -> tuple[Pair, ...]:
    """All cross pairs ``(k, j)``, ``k in 1..K``, ``j in 1..K+J``, ``k != j``.

    The returned tuple is in canonical (lexicographic) order; its length is
    ``K * (K + J - 1)``.
    """
    return tuple(
        (k, j)
        for k in range(1, cfg.K + 1)
        for j in range(1, cfg.n_tx + 1)
        if k != j
    )


def canonical_alignment(cfg: NetworkConfig, pairs) -> tuple[Pair, ...]:
    """Validate an alignment set and return it sorted lexicographically.

    The canonical order fixes the row-block order of the coefficient matrix,
    so every consumer normalizes through here.
    """
    if not hasattr(pairs, "__iter__"):
        raise ConfigError(f"alignment must be an iterable of (k, j) pairs, got {pairs!r}")
    out = set()
    for entry in pairs:
        try:
            k, j = entry
        except (TypeError, ValueError):
            raise ConfigError(f"alignment entry must be a (k, j) pair, got {entry!r}") from None
        k, j = _index(k, "alignment pair entry"), _index(j, "alignment pair entry")
        if not 1 <= k <= cfg.K:
            raise ConfigError(f"alignment pair ({k},{j}): receiver index out of range 1..{cfg.K}")
        if not 1 <= j <= cfg.n_tx:
            raise ConfigError(f"alignment pair ({k},{j}): transmitter index out of range 1..{cfg.n_tx}")
        if k == j:
            raise ConfigError(f"alignment pair ({k},{j}): direct links cannot be aligned")
        out.add((k, j))
    return tuple(sorted(out))


def scale_config(cfg: NetworkConfig, c: int) -> NetworkConfig:
    """Multiply every antenna and stream count by the positive integer ``c``."""
    c = _index(c, "scale factor")
    if c < 1:
        raise ConfigError(f"scale factor must be a positive integer, got {c}")
    return NetworkConfig(
        K=cfg.K,
        J=cfg.J,
        M=tuple(c * m for m in cfg.M),
        N=tuple(c * n for n in cfg.N),
        d=tuple(c * x for x in cfg.d),
    )


def _check_seed(seed) -> int:
    seed = _index(seed, "seed", ValueError)
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def generate_channel(cfg: NetworkConfig, seed: int, *, alignment=None) -> Channel:
    """Draw i.i.d. unit-variance circularly-symmetric complex Gaussian channels.

    Every matrix ``H_kj`` comes from its own substream keyed by
    ``(seed, k, j)``, so a given link's realization does not depend on which
    other links are generated or on iteration order.  By default every link
    is drawn, direct links ``H_kk`` included.  With ``alignment``, checked by
    :func:`canonical_alignment`, only the links of its pairs are drawn, in
    canonical order, each the same as in the full draw; such a partial
    channel does not pass :func:`check_channel`.
    """
    seed = _check_seed(seed)
    links = (((k, j) for k in range(1, cfg.K + 1) for j in range(1, cfg.n_tx + 1))
             if alignment is None else canonical_alignment(cfg, alignment))
    channel: Channel = {}
    for k, j in links:
        rng = np.random.default_rng(np.random.SeedSequence([seed, k, j]))
        channel[(k, j)] = _complex_normal(rng, (cfg.N[k - 1], cfg.M[j - 1]))
    return channel


def check_channel(cfg: NetworkConfig, channel: Channel) -> None:
    """Verify a channel dict covers all pairs, each a finite numeric numpy array of the right shape."""
    for k in range(1, cfg.K + 1):
        for j in range(1, cfg.n_tx + 1):
            if (k, j) not in channel:
                raise ConfigError(f"channel state is missing pair ({k},{j})")
            h = channel[(k, j)]
            if not isinstance(h, np.ndarray):
                raise ConfigError(f"channel ({k},{j}) is a {type(h).__name__}, expected a numpy array")
            if h.dtype.kind not in "iufc":
                raise ConfigError(f"channel ({k},{j}) has non-numeric entries of dtype {h.dtype}")
            want = (cfg.N[k - 1], cfg.M[j - 1])
            if h.shape != want:
                raise ConfigError(
                    f"channel ({k},{j}) has shape {h.shape}, expected {want}"
                )
            if not np.isfinite(h).all():
                raise ConfigError(f"channel ({k},{j}) has non-finite entries")


def check_transceivers(cfg: NetworkConfig, ts: TransceiverSet) -> None:
    """Verify ``ts`` has one finite ``N_k x d_k`` decoder per receiver and one
    finite ``M_j x d_j`` precoder per transmitter; ``ValueError`` names the first bad block."""
    for name, blocks, rows in (("decoder", ts.U, cfg.N), ("precoder", ts.V, cfg.M)):
        if len(blocks) != len(rows):
            raise ValueError(f"transceivers have {len(blocks)} {name}s, expected {len(rows)}")
        for node, (block, n, d) in enumerate(zip(blocks, rows, cfg.d), start=1):
            if block.shape != (n, d):
                raise ValueError(f"{name} {node} has shape {block.shape}, expected {(n, d)}")
            if not np.isfinite(block).all():
                raise ValueError(f"{name} {node} has non-finite entries")


def free_shapes(cfg: NetworkConfig):
    """Shapes of the free transceiver blocks, the views ``U~_k = U_k[d_k:]`` and
    ``V~_j = V_j[d_j:]`` of a :class:`TransceiverSet`.

    Returns ``(rx, tx)``: ``rx[k-1] = (N_k - d_k, d_k)`` for receivers
    ``1..K`` and ``tx[j-1] = (M_j - d_j, d_j)`` for transmitters ``1..K+J``.
    """
    return (
        tuple((n - d, d) for n, d in zip(cfg.N, cfg.d)),
        tuple((m - d, d) for m, d in zip(cfg.M, cfg.d)),
    )


@dataclass(frozen=True, eq=False)
class Problem:
    """One alignment instance, validated once: configuration, alignment set, channel.

    Construction canonicalizes the alignment set (``pairs``, lexicographic)
    and checks the channel against the configuration, raising
    :class:`ConfigError` on either.  The aligned links are read from the
    channel then, once: ``by_rx[k]`` is ``((j, H_kj), ...)`` over the aligned
    transmitters of receiver ``k``, and ``by_tx[j]`` is ``((k, H_kj^H), ...)``
    over the aligned receivers of transmitter ``j``, the links of the
    reciprocal network.  Both follow the canonical pair order, and nodes
    without an aligned pair have no entry.
    """

    cfg: NetworkConfig
    pairs: tuple[Pair, ...]
    channel: Channel
    by_rx: dict[int, tuple[tuple[int, np.ndarray], ...]] = field(init=False)
    by_tx: dict[int, tuple[tuple[int, np.ndarray], ...]] = field(init=False)

    def __post_init__(self):
        pairs = canonical_alignment(self.cfg, self.pairs)
        check_channel(self.cfg, self.channel)
        by_rx, by_tx = {}, {}
        for k, j in pairs:
            by_rx[k] = by_rx.get(k, ()) + ((j, self.channel[k, j]),)
            by_tx[j] = by_tx.get(j, ()) + ((k, self.channel[k, j].conj().T),)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "by_rx", by_rx)
        object.__setattr__(self, "by_tx", by_tx)


# Config file format: flat `key = value` lines, one key each of K, J, M, N, d
# (comma-separated integer lists for M/N/d), `alignment` (either `all`,
# `none`, or semicolon-separated `k,j` pairs) and an optional unsigned
# 64-bit `seed`.  Blank lines and `#` comments are ignored; unknown or
# duplicate keys are rejected.

_REQUIRED_KEYS = ("K", "J", "M", "N", "d", "alignment")


def save_config(path, cfg: NetworkConfig, alignment, seed: int | None = None) -> None:
    """Write a config file; ``load_config`` round-trips it exactly."""
    pairs = canonical_alignment(cfg, alignment)
    if pairs == alignment_all(cfg):
        align_text = "all"
    elif not pairs:
        align_text = "none"
    else:
        align_text = "; ".join(f"{k},{j}" for k, j in pairs)
    lines = [
        f"K = {cfg.K}",
        f"J = {cfg.J}",
        f"M = {', '.join(str(x) for x in cfg.M)}",
        f"N = {', '.join(str(x) for x in cfg.N)}",
        f"d = {', '.join(str(x) for x in cfg.d)}",
        f"alignment = {align_text}",
    ]
    if seed is not None:
        lines.append(f"seed = {_check_seed(seed)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_int(text: str, lineno: int, key: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigParseError(f"line {lineno}: key '{key}' expects an integer, got {text.strip()!r}") from None


def _parse_int_list(text: str, lineno: int, key: str) -> tuple[int, ...]:
    items = text.split(",")
    if len(items) == 1 and not items[0].strip():
        raise ConfigParseError(f"line {lineno}: key '{key}' expects a comma-separated integer list")
    return tuple(_parse_int(t, lineno, key) for t in items)


def load_config(path):
    """Parse a config file.

    Returns
    -------
    (NetworkConfig, tuple of (k, j) pairs, seed or None)
        The alignment alias ``all`` expands to every cross pair.
    """
    raw: dict[str, tuple[int, str]] = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        raise ConfigParseError(f"{path}: not a UTF-8 text file") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigParseError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _REQUIRED_KEYS and key != "seed":
            raise ConfigParseError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigParseError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = (lineno, value)
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ConfigParseError(f"missing required key {key!r}")

    cfg = NetworkConfig(
        K=_parse_int(raw["K"][1], raw["K"][0], "K"),
        J=_parse_int(raw["J"][1], raw["J"][0], "J"),
        M=_parse_int_list(raw["M"][1], raw["M"][0], "M"),
        N=_parse_int_list(raw["N"][1], raw["N"][0], "N"),
        d=_parse_int_list(raw["d"][1], raw["d"][0], "d"),
    )

    lineno, align_text = raw["alignment"]
    if align_text == "all":
        pairs = alignment_all(cfg)
    elif align_text == "none":
        pairs = ()
    else:
        parsed = []
        for item in align_text.split(";"):
            fields = item.split(",")
            if len(fields) != 2:
                raise ConfigParseError(
                    f"line {lineno}: alignment entry {item.strip()!r} is not of the form 'k,j'"
                )
            parsed.append((_parse_int(fields[0], lineno, "alignment"),
                           _parse_int(fields[1], lineno, "alignment")))
        pairs = canonical_alignment(cfg, parsed)

    seed = None
    if "seed" in raw:
        lineno, seed_text = raw["seed"]
        seed = _parse_int(seed_text, lineno, "seed")
        try:
            seed = _check_seed(seed)
        except ValueError as exc:
            raise ConfigParseError(f"line {lineno}: {exc}") from None
    return cfg, pairs, seed
