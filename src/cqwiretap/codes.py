"""Wiretap codes: plain, seeded, modular, and derandomized.

A transmission code carries deterministic codewords with sub-POVM decoders.
A wiretap code replaces the codeword map by a stochastic encoder.  A
common-randomness code is a seed-indexed family of wiretap codes sharing
one message set.  The modular construction coarse-grains a transmission
code along the preimages of a verified biregular function, and
derandomization concatenates a seed-transmitting code with several reuses
of a common-randomness code.

Encoders are stored sparsely (only strings with nonzero probability).  The
derandomized code is never flattened into one wiretap code: its error is
evaluated blockwise, and the eavesdropper's channel is built from one
composed inner channel per seed, with no decoder on the concatenated space
and no listing of its encoder strings.
"""

import itertools
import math
from functools import reduce

import numpy as np

from . import operators as op
from .bri import BriFunction, preimage
from .channels import ClassicalChannel, CqChannel, compose, tensor_power
from .config import STRING_CAP
from .errors import InvalidStateError


def _check_decoders(decoders, keys, dim):
    if set(decoders) != set(keys):
        raise InvalidStateError("decoders must cover the message set exactly")
    cleaned = op.check_sub_povm([np.asarray(decoders[m], dtype=complex) for m in keys], dim)
    return dict(zip(keys, cleaned))


class TransmissionCode:
    """Deterministic codewords with a sub-POVM decoder family."""

    __slots__ = ("codewords", "decoders", "n", "dim")

    def __init__(self, codewords, decoders, n: int, dim: int):
        self.n = int(n)
        self.dim = int(dim)
        cws = {}
        for c, x in dict(codewords).items():
            x = tuple(x)
            if len(x) != self.n:
                raise InvalidStateError(f"codeword for {c!r} has length {len(x)}, not {self.n}")
            cws[c] = x
        self.codewords = cws
        self.decoders = _check_decoders(decoders, cws, self.dim)

    @property
    def messages(self) -> tuple:
        return tuple(self.codewords)

    def as_wiretap(self) -> "WiretapCode":
        encoder = ClassicalChannel(
            self.messages, {c: {x: 1.0} for c, x in self.codewords.items()}
        )
        return WiretapCode(encoder, self.decoders, self.n, self.dim)


class WiretapCode:
    """Stochastic encoder over input strings plus a sub-POVM decoder family."""

    __slots__ = ("encoder", "decoders", "n", "dim")

    def __init__(self, encoder: ClassicalChannel, decoders, n: int, dim: int):
        self.n = int(n)
        self.dim = int(dim)
        for m in encoder.inputs:
            for x in encoder.row(m):
                if len(tuple(x)) != self.n:
                    raise InvalidStateError(
                        f"encoder row {m!r} contains a string of length {len(x)}, not {self.n}"
                    )
        self.encoder = encoder
        self.decoders = _check_decoders(decoders, encoder.inputs, self.dim)

    @property
    def messages(self) -> tuple:
        return self.encoder.inputs


class CommonRandomnessCode:
    """Seed-indexed family of wiretap codes over one message set."""

    __slots__ = ("seeds", "per_seed")

    def __init__(self, per_seed):
        per_seed = dict(per_seed)
        if not per_seed:
            raise InvalidStateError("need at least one seed")
        self.seeds = tuple(sorted(per_seed))
        first = per_seed[self.seeds[0]]
        for s in self.seeds:
            code = per_seed[s]
            if code.messages != first.messages or code.n != first.n or code.dim != first.dim:
                raise InvalidStateError("per-seed codes must share messages, length, dim")
        self.per_seed = per_seed

    @property
    def messages(self) -> tuple:
        return self.per_seed[self.seeds[0]].messages

    @property
    def n(self) -> int:
        return self.per_seed[self.seeds[0]].n

    @property
    def dim(self) -> int:
        return self.per_seed[self.seeds[0]].dim


class DerandomizedCode:
    """A seed-transmitting code driving N reuses of a common-randomness code.

    Holds the two components.  The error is evaluated blockwise
    (:func:`error_derandomized`), and the leakage on the eavesdropper's
    channel :func:`derandomized_channel`; neither forms the concatenated
    code's decoders.  Those decoders, sum_s D'_s (x) D^s_{m_1} (x) ... (x)
    D^s_{m_N}, need no check of their own: summed over all messages they
    give sum_s D'_s (x) (sum_m D^s_m)^{(x)N} <= I from the validated
    components.
    """

    __slots__ = ("seed_code", "inner", "n_repeats")

    def __init__(self, seed_code: TransmissionCode, inner: CommonRandomnessCode, n_repeats: int):
        if sorted(seed_code.messages) != sorted(inner.seeds):
            raise InvalidStateError("seed code must transmit exactly the inner seed set")
        if n_repeats < 1:
            raise InvalidStateError(f"need n_repeats >= 1, got {n_repeats}")
        self.seed_code = seed_code
        self.inner = inner
        self.n_repeats = int(n_repeats)

    @property
    def messages(self) -> tuple:
        return tuple(itertools.product(self.inner.messages, repeat=self.n_repeats))

    @property
    def n_total(self) -> int:
        return self.seed_code.n + self.inner.n * self.n_repeats


def _worst_errors(codes, w) -> np.ndarray:
    """Worst-message error of each wiretap code in ``codes`` on the
    single-letter channel ``w``; the codes share messages, n and dim.

    sum_x E(x|m)(1 - tr(D_m W(x))) is the row sum of E(.|m) less
    tr(D_m U(m)) for the composed output U(m) = sum_x E(x|m) W^{(x)n}(x),
    so every trace comes from one ``einsum`` over the stacked decoders and
    composed outputs.
    """
    w_n = tensor_power(w, codes[0].n)
    msgs = codes[0].messages
    outputs = np.array([compose(c.encoder, w_n).states() for c in codes])
    decoders = np.array([[c.decoders[m] for m in msgs] for c in codes])
    mass = np.array([[sum(c.encoder.row(m).values()) for m in msgs] for c in codes])
    success = np.einsum("cmij,cmji->cm", decoders, outputs).real
    return np.maximum((mass - success).max(axis=1), 0.0)


def error_max(code, w) -> float:
    """Worst-message decoding error sup_m sum_x E(x|m)(1 - tr(D_m W(x))).

    ``w`` is the single-letter channel; only strings in the encoder's
    support are evaluated.
    """
    if isinstance(code, TransmissionCode):
        code = code.as_wiretap()
    return float(_worst_errors([code], w)[0])


def error_expected_cr(crcode: CommonRandomnessCode, w) -> float:
    """Seed-average of the per-seed worst-message error, from one ``einsum``
    over every seed."""
    errors = _worst_errors([crcode.per_seed[s] for s in crcode.seeds], w)
    return sum(errors.tolist()) / len(crcode.seeds)


def assemble_bri_modular(t: TransmissionCode, f: BriFunction) -> CommonRandomnessCode:
    """Coarse-grain a transmission code along a biregular function.

    For seed s and message m the encoder is uniform over the codewords of
    the preimage f_s^{-1}(m) and the decoder is the sum of their decoders.
    The transmission code's messages must be exactly 0..|X|-1, the
    function's input indices.
    """
    if not isinstance(f, BriFunction):
        raise InvalidStateError("modular assembly needs a verified BriFunction")
    if sorted(t.messages) != list(range(f.n_inputs)):
        raise InvalidStateError(
            f"transmission code messages must be 0..{f.n_inputs - 1} to feed the function"
        )
    per_seed = {}
    for s in range(f.n_seeds):
        rows = {}
        decoders = {}
        for m in f.regularity_set:
            row = {}
            total = np.zeros((t.dim, t.dim), dtype=complex)
            for c in preimage(f, s, m):
                c = int(c)
                x = t.codewords[c]
                row[x] = row.get(x, 0.0) + 1.0 / f.d_s
                total = total + t.decoders[c]
            rows[m] = row
            decoders[m] = total
        encoder = ClassicalChannel(f.regularity_set, rows)
        per_seed[s] = WiretapCode(encoder, decoders, t.n, t.dim)
    return CommonRandomnessCode(per_seed)


def derandomized_channel(d: DerandomizedCode, v, cap=None) -> CqChannel:
    """The eavesdropper's channel of a derandomized code.

    Message tuple (m_1..m_N) maps to
    (1/|S|) sum_s V^{(x)n'}(c_s) (x) U_s(m_1) (x) ... (x) U_s(m_N), where
    c_s is the seed codeword and U_s(m) = sum_x E_s(x|m) V^{(x)n}(x) is the
    seed's inner code seen through V, composed once per seed.  The output
    dimension v.dim^{n'+nN} is checked against the dimension cap ``cap``,
    and the |M|^N |S| message-seed pairs against the string cap.
    """
    dim = tensor_power(v, d.n_total, cap).dim
    seeds = d.inner.seeds
    if len(d.inner.messages) ** d.n_repeats * len(seeds) > STRING_CAP:
        raise InvalidStateError("derandomized message set exceeds the string cap")
    v_head = tensor_power(v, d.seed_code.n)
    v_block = tensor_power(v, d.inner.n)
    heads = {s: v_head.output(d.seed_code.codewords[s]) for s in seeds}
    blocks = {s: compose(d.inner.per_seed[s].encoder, v_block) for s in seeds}
    messages = d.messages
    outputs = {}
    for mbar in messages:
        terms = (reduce(np.kron, [heads[s]] + [blocks[s].output(m) for m in mbar]) for s in seeds)
        outputs[mbar] = sum(terms) / len(seeds)
    return CqChannel(messages, dim, outputs, validate=False)


def error_derandomized(d: DerandomizedCode, w, cap=None) -> float:
    """Exact worst-message error of the derandomized code, blockwise.

    The decoder trace factorizes over the seed block and the N message
    blocks, so the error needs only the seed-block confusion matrix
    A[s, s'] = tr(D'_{s'} W(c_s)) and the per-block terms
    B[s, s', m] = tr(D^{s'}_m U_s(m)), with U_s the seed's inner code
    composed with W: one ``einsum`` each, and no operator on the
    concatenated space.  The success of a message tuple,
    sum_{s,s'} A[s, s'] prod_i B[s, s', m_i], does not depend on the order
    of the tuple, so the worst case takes one (k, k) product per multiset
    of N messages.  Only the block dimensions count against ``cap``.
    """
    seeds = d.inner.seeds
    k = len(seeds)
    w_head = tensor_power(w, d.seed_code.n, cap)
    heads = np.array([w_head.output(d.seed_code.codewords[s]) for s in seeds])
    seed_decoders = np.array([d.seed_code.decoders[s] for s in seeds])
    a = np.einsum("tij,sji->st", seed_decoders, heads).real
    w_block = tensor_power(w, d.inner.n, cap)
    msgs = d.inner.messages
    inner = [d.inner.per_seed[s] for s in seeds]
    blocks = np.array([compose(c.encoder, w_block).states() for c in inner])
    decoders = np.array([[c.decoders[m] for m in msgs] for c in inner])
    b = np.einsum("tmij,smji->mst", decoders, blocks).real
    worst = 0.0
    for mbar in itertools.combinations_with_replacement(range(len(msgs)), d.n_repeats):
        term = a
        for m_i in mbar:
            term = term * b[m_i]
        worst = max(worst, 1.0 - term.sum() / k)
    return float(worst)


def rate(code) -> float:
    """Bits per channel use; the derandomized form is N log2|M| / (n'+nN)."""
    if isinstance(code, DerandomizedCode):
        return (
            code.n_repeats
            * math.log2(len(code.inner.messages))
            / (code.seed_code.n + code.inner.n * code.n_repeats)
        )
    return math.log2(len(code.messages)) / code.n


def transmission_code_pgm(codewords, w, n: int, cap=None) -> TransmissionCode:
    """Square-root-measurement decoders for the given codewords.

    With S = sum_c W(x_c), each decoder is S^{-1/2} W(x_c) S^{-1/2}
    (pseudo-inverse on the support), so the family sums to the support
    projector of S and is always a valid sub-POVM.  The dimension w.dim^n
    is checked against ``cap``.
    """
    codewords = {c: tuple(x) for c, x in dict(codewords).items()}
    w_n = tensor_power(w, n, cap)
    states = {c: w_n.output(x) for c, x in codewords.items()}
    total = sum(states.values())
    vals, vecs = np.linalg.eigh(op.check_hermitian(total))
    mask = vals > 1e-12 * vals.max()
    inv_sqrt = (vecs[:, mask] / np.sqrt(vals[mask])) @ vecs[:, mask].conj().T
    decoders = {c: inv_sqrt @ rho @ inv_sqrt for c, rho in states.items()}
    return TransmissionCode(codewords, decoders, n, w_n.dim)
