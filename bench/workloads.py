"""The four workloads of the pblocksim benchmark.

A workload turns a seed into circuits, runs each one through a single public
engine entry point (`run_blocked_full`, `run_approx` or `run_stabilizer`)
and checks every output exactly against an oracle.  Items flagged `primary`
are the circuits the workload is about; gates_per_s counts only those.
Items on the "narrow" and "wide" sides run the same gates on a small and on
a large register; width_cost_ratio divides their per-gate times, which is
the paper's claim that the cost per gate does not depend on the width.

The program is passed in as a `Program` (its modules) because set-up
re-imports the package in order to time the import.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from collections import Counter, defaultdict
from dataclasses import dataclass

WIDE = 20000        # width of the local-wide register, as in the paper's claim
# Width of the other workloads' wide twins.  Their ratio is about
# 1 + (per-gate width cost) / (per-gate work), and their work per gate varies
# with the seed; a narrower twin keeps that variation out of the ratio.
TWIN_WIDE = 2000
TWIN_GROUP = 10     # narrow circuits per wide twin; each twin runs after them
APPROX_P = 3
APPROX_STEPS = 12
APPROX_EPS = 1.25e-13   # required_epsilon(eta=0.5, p=3, steps=12)


def sub_seed(tag: str, seed: int, index: int) -> int:
    """Generator seed of the index-th circuit drawn for a run seed."""
    digest = hashlib.sha256(f"{tag}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(eq=False)
class Item:
    """One engine call of a round.  `segments` holds (oracle key, offset,
    width) for each independent source circuit laid out in this register;
    `expect` is the measured bit a mirror circuit must give."""
    circuit: object
    text: str
    primary: bool
    side: str = ""
    segments: tuple = ()
    expect: object = None

    @property
    def gates(self) -> int:
        return len(self.circuit.steps)


def same_dist(a, b) -> bool:
    return a.p0 == b.p0 and a.p1 == b.p1


def shifted(pb, step, offset: int):
    targets = tuple(q + offset for q in step.targets)
    if isinstance(step, pb.approx.Rotation):
        return pb.approx.Rotation(step.pauli, step.theta, targets)
    return pb.circuits.CircuitStep(step.gate, targets)


def side_by_side(pb, circuits, width: int):
    """The circuits on disjoint qubits of one register of `width` qubits;
    the qubits past them stay idle in |0>.  The first circuit's measured
    qubit is the one measured."""
    steps, bits, offset = [], [], 0
    for c in circuits:
        steps.extend(shifted(pb, s, offset) for s in c.steps)
        bits.append(c.input_bits)
        offset += c.width
    bits.append("0" * (width - offset))
    cls = type(circuits[0])
    return cls(width, "".join(bits), tuple(steps), circuits[0].measured_qubit)


def segments_of(circuits, keys) -> tuple:
    out, offset = [], 0
    for key, c in zip(keys, circuits):
        out.append((key, offset, c.width))
        offset += c.width
    return tuple(out)


def reduced_density(pb, width: int, amps: dict, labels) -> tuple[list, bool]:
    """Exact reduced density matrix of a pure state on `labels` (first label
    is the most significant index bit), and whether it is pure."""
    shifts = [width - 1 - q for q in labels]
    mask = sum(1 << s for s in shifts)
    dim = 1 << len(labels)
    groups = defaultdict(list)
    for idx, amp in amps.items():
        row = 0
        for s in shifts:
            row = (row << 1) | ((idx >> s) & 1)
        groups[idx & ~mask].append((row, amp))
    rho = [pb.exact.ZERO] * (dim * dim)
    for members in groups.values():
        for r, a in members:
            for c, b in members:
                rho[r * dim + c] = rho[r * dim + c] + a * b.conjugate()
    purity = pb.exact.ZERO
    for r in range(dim):
        for c in range(dim):
            purity = purity + rho[r * dim + c] * rho[c * dim + r]
    return rho, purity == pb.exact.ONE


class Workload:
    """Set-up runs `plan`, then the timed `generate`, then `arrange`.  Only
    `generate` counts towards setup_s: the program's generators and the
    round trip of their outputs through text.  Whatever the benchmark
    derives from those inputs (width twins, slices, expected outputs) is
    built in `plan` or `arrange`."""
    name = ""
    why = ""

    def plan(self, pb, seed: int):
        """Untimed work that picks the inputs; most workloads need none."""
        return None

    def generate(self, pb, seed: int, plan) -> list[Item]:
        """The primary items, from the program's generators."""
        raise NotImplementedError

    def arrange(self, pb, items: list[Item], plan) -> list[Item]:
        """Every item of a round, in the order it runs."""
        return items

    def notes(self, plan) -> list[str]:
        """Lines "name value unit" that describe the inputs of a run."""
        return []

    def canary(self, pb) -> str:
        """Text of a few raw generator outputs at seed 0.  Its digest is
        recorded in digests.json; a program whose generators give other
        inputs is not comparable with the recorded benchmark."""
        raise NotImplementedError

    def run(self, pb, item: Item):
        raise NotImplementedError

    def same(self, a, b) -> bool:
        raise NotImplementedError

    def verify(self, pb, items: list[Item], outputs: dict) -> set:
        """Items whose output disagrees with the oracle."""
        raise NotImplementedError


def round_trip(pb, circuit) -> tuple:
    """(circuit as parsed from its text, text), as the command-line tool
    would read it."""
    text = pb.circuits.serialize_circuit(circuit)
    return pb.circuits.parse_circuit(text), text


def with_twins(pb, items, circuits, members, load=round_trip) -> list[Item]:
    """The items, with the `members` grouped by TWIN_GROUP and each group
    followed by its wide twin: the group side by side on TWIN_WIDE qubits.
    Each twin runs right after its narrow side, so drift in machine speed
    cancels from width_cost_ratio."""
    out = []
    for lo in range(0, len(members), TWIN_GROUP):
        group = members[lo:lo + TWIN_GROUP]
        sources = [circuits[i] for i in group]
        for i in group:
            items[i].side = "narrow"
        out += [items[i] for i in group]
        out.append(Item(*load(pb, side_by_side(pb, sources, TWIN_WIDE)), False,
                        "wide", segments_of(sources, group)))
    grouped = set(members)
    return out + [item for i, item in enumerate(items) if i not in grouped]


class BlockedWorkload(Workload):
    """Blocked engine; the oracle is the dense engine's reduced states."""
    p = 0

    def run(self, pb, item):
        return pb.blocked.run_blocked_full(item.circuit, self.p)

    def same(self, a, b):
        return (same_dist(a[1], b[1])
                and blocks_by_labels(a[0]) == blocks_by_labels(b[0]))

    def locate(self, item: Item, q: int):
        """(oracle key, qubit index inside that key's register)."""
        starts = [off for _, off, _ in item.segments]
        at = bisect.bisect_right(starts, q) - 1
        if at >= 0:
            key, off, width = item.segments[at]
            if q < off + width:
                return key, q - off
        return "pad", 0

    def amplitudes(self, pb, key):
        """(width, nonzero amplitudes) of the register behind a key."""
        raise NotImplementedError

    def verify(self, pb, items, outputs):
        # Every final block must equal the oracle's reduced state on its
        # qubits and be pure; then the product of the blocks is the state.
        failed = set()
        wanted = defaultdict(list)
        for item in items:
            state, dist = outputs[item]
            covered = []
            for block in state.blocks.values():
                located = [self.locate(item, q) for q in block.labels]
                keys = {key for key, _ in located}
                if len(keys) != 1:
                    failed.add(item)
                    break
                local = tuple(q for _, q in located)
                wanted[keys.pop()].append((item, local, block.matrix.entries))
                covered.extend(block.labels)
            if sorted(covered) != list(range(item.circuit.width)):
                failed.add(item)
            key, q = self.locate(item, item.circuit.measured_qubit)
            wanted[key].append((item, (q,), dist))
        for key, checks in wanted.items():
            width, amps = self.amplitudes(pb, key)
            cache = {}
            for item, labels, got in checks:
                if labels not in cache:
                    cache[labels] = reduced_density(pb, width, amps, labels)
                rho, pure = cache[labels]
                if isinstance(got, list):
                    ok = pure and got == rho
                else:
                    ok = got.p0 == rho[0] and got.p1 == rho[3]
                if not ok:
                    failed.add(item)
        return failed


def blocks_by_labels(state) -> dict:
    return {b.labels: b.matrix.entries for b in state.blocks.values()}


class LocalWide(BlockedWorkload):
    name = "local-wide"
    why = ("blocked p=2 block-local gates at n=20000 beside 400 n=50 circuits "
           "of the same gates: per-gate state copy, no splits, width cost")
    p = 2
    n_narrow = 50
    gates_narrow = 5

    def __init__(self, count: int = WIDE // 50):
        self.count = count
        self.narrow = []

    def generate(self, pb, seed, plan):
        wide = pb.circuits.gen_block_local(
            self.n_narrow * self.count, self.p, self.gates_narrow * self.count,
            sub_seed(self.name, seed, 0))
        return [Item(*round_trip(pb, wide), True, "wide",
                     tuple((i, i * self.n_narrow, self.n_narrow)
                           for i in range(self.count)))]

    def arrange(self, pb, items, plan):
        # Same gates per cell on both sides: the narrow circuits are the
        # wide register cut into slices of n_narrow qubits.
        [wide] = items
        self.narrow = [
            sliced(pb, wide.circuit, lo, self.n_narrow)
            for lo in range(0, wide.circuit.width, self.n_narrow)]
        assert sum(len(c.steps) for c in self.narrow) == wide.gates
        narrow = [Item(c, pb.circuits.serialize_circuit(c), True, "narrow",
                       ((i, 0, self.n_narrow),))
                  for i, c in enumerate(self.narrow)]
        # The wide call runs between the two halves of the narrow ones, so
        # drift in machine speed cancels from width_cost_ratio.
        half = self.count // 2
        return narrow[:half] + [wide] + narrow[half:]

    def canary(self, pb):
        gen = pb.circuits.gen_block_local
        return "".join(pb.circuits.serialize_circuit(
            gen(self.n_narrow, self.p, self.gates_narrow,
                sub_seed(self.name, 0, i))) for i in range(3))

    def locate(self, item, q):
        # Gates never cross a cell, so each cell is its own oracle register.
        key, local = super().locate(item, q)
        lo = local - local % self.p
        return (key, lo), local - lo

    def amplitudes(self, pb, key):
        index, lo = key
        c = self.narrow[index]
        cell = range(lo, min(lo + self.p, c.width))
        steps = tuple(
            pb.circuits.CircuitStep(s.gate, tuple(q - lo for q in s.targets))
            for s in c.steps if s.targets[0] in cell)
        sub = pb.circuits.Circuit(len(cell), c.input_bits[lo:lo + len(cell)],
                                  steps)
        return sub.width, pb.dense.dense_run(sub).nonzeros()


def sliced(pb, c, lo: int, width: int):
    """The steps of `c` on qubits lo .. lo+width-1, on a register of their
    own; every step must lie inside the slice or outside it."""
    cut = range(lo, lo + width)
    steps = tuple(
        pb.circuits.CircuitStep(s.gate, tuple(q - lo for q in s.targets))
        for s in c.steps if s.targets[0] in cut)
    return pb.circuits.Circuit(width, c.input_bits[lo:lo + width], steps)


class EntangleSplit(BlockedWorkload):
    name = "entangle-split"
    why = ("blocked p=3 entangle/disentangle at n=12: merges up to 6 qubits, "
           "conjugation and split_exact over up to 166 partitions")
    p = 3
    n = 12
    gates = 50

    def __init__(self, count: int = 160, twin_count: int = 40):
        self.count = count
        self.twin_count = twin_count
        self.narrow = []

    def generate(self, pb, seed, plan):
        gen = pb.circuits.gen_entangle_disentangle
        narrow = [gen(self.n, self.p, self.gates, sub_seed(self.name, seed, i))
                  for i in range(self.count)]
        return [Item(*round_trip(pb, c), True, segments=((i, 0, self.n),))
                for i, c in enumerate(narrow)]

    def arrange(self, pb, items, plan):
        self.narrow = [item.circuit for item in items]
        return with_twins(pb, items, self.narrow, list(range(self.twin_count)))

    def canary(self, pb):
        return "".join(pb.circuits.serialize_circuit(
            pb.circuits.gen_entangle_disentangle(
                self.n, self.p, self.gates, sub_seed(self.name, 0, i)))
            for i in range(3))

    def amplitudes(self, pb, key):
        if key == "pad":    # idle qubits of a twin, in |0>
            return 1, {0: pb.exact.ONE}
        state = pb.dense.dense_run(self.narrow[key])
        return state.width, state.nonzeros()


def perturbed_text(pb, pc) -> str:
    """The circuit format has no rotations, so they ride in comment lines
    that parse_circuit skips and `parse_perturbed` splices back in."""
    rotation = pb.approx.Rotation
    exact = tuple(s for s in pc.steps if not isinstance(s, rotation))
    text = pb.circuits.serialize_circuit(pb.circuits.Circuit(
        pc.width, pc.input_bits, exact, pc.measured_qubit))
    return text + "".join(
        f"# rotation {j} {s.pauli} {s.theta!r} {s.targets[0]} {s.targets[1]}\n"
        for j, s in enumerate(pc.steps) if isinstance(s, rotation))


def perturbed_round_trip(pb, pc) -> tuple:
    text = perturbed_text(pb, pc)
    return parse_perturbed(pb, text), text


def parse_perturbed(pb, text: str):
    c = pb.circuits.parse_circuit(text)
    rotations = {}
    for line in text.splitlines():
        if line.startswith("# rotation "):
            _, _, j, pauli, theta, a, b = line.split()
            rotations[int(j)] = pb.approx.Rotation(pauli, float(theta),
                                                   (int(a), int(b)))
    exact = iter(c.steps)
    steps = tuple(rotations[j] if j in rotations else next(exact)
                  for j in range(len(c.steps) + len(rotations)))
    return pb.approx.PerturbedCircuit(c.width, c.input_bits, steps,
                                      c.measured_qubit, APPROX_P)


def exact_surrogate(pb, pc):
    """The circuit the approx engine effectively runs: every rotation
    replaced by its nearest exact gate."""
    steps = tuple(
        pb.circuits.CircuitStep(pb.approx.nearest_exact_gate(s), s.targets)
        if isinstance(s, pb.approx.Rotation) else s for s in pc.steps)
    return pb.circuits.Circuit(pc.width, pc.input_bits, steps,
                               pc.measured_qubit)


def merge_signature(pb, pc) -> tuple[int, int, int]:
    """How many steps merge blocks into 4, 5 and 6 qubits, from a blocked
    run of the exact surrogate."""
    c = exact_surrogate(pb, pc)
    state = pb.blocked.init_blocked(c)
    counts = [0, 0, 0]
    for j, step in enumerate(c.steps):
        ids = {state.assignment[q] for q in step.targets}
        k = sum(len(state.blocks[i].labels) for i in ids)
        if k > APPROX_P:
            counts[k - APPROX_P - 1] += 1
        state = pb.blocked.apply_blocked(state, step, APPROX_P, j)
    return tuple(counts)


class ApproxPerturbed(Workload):
    name = "approx-perturbed"
    why = ("approx p=3 n=8 perturbed circuits, merge sizes in the "
           "generator's own shares, no 6-qubit merges: "
           "product_over_partition, trace norms")
    n = 8
    # A merge into 4, 5 or 6 qubits costs about 12 ms, 0.14 s or 1.8 s, and
    # how many a random circuit holds varies widely.  So each pool holds
    # every (4, 5, 6)-merge signature in its share of a census of the
    # generator's draws, rounded; then only the choice of circuits within a
    # signature depends on the seed.  Circuits with a merge into 6 qubits
    # are left out: one costs 1.4 to 3.5 s, so the one or two a run could
    # afford would set its spread alone.
    CENSUS = 500        # draws of the census, the same for every seed
    POOL = 120
    # Circuits with one 4-qubit merge get wide twins: the cheapest signature
    # with a merge, so a twin of TWIN_GROUP of them stays one short call.
    LIGHT = (1, 0, 0)
    MAX_DRAWS = 5000

    def __init__(self, pool: int = POOL, census: int = CENSUS):
        self.pool = pool
        self.census = census

    def draw(self, pb, seed, index):
        sub = sub_seed(self.name, seed, index)
        pc = pb.approx.gen_perturbed(self.n, APPROX_P, APPROX_STEPS,
                                     APPROX_EPS, sub)
        measured = random.Random(sub).randrange(self.n)
        return pb.approx.PerturbedCircuit(pc.width, pc.input_bits, pc.steps,
                                          measured, APPROX_P)

    def shares(self, pb) -> dict:
        """Share of each merge signature among the census draws."""
        tally = Counter(merge_signature(pb, self.draw(pb, "census", index))
                        for index in range(self.census))
        return {sig: n / self.census for sig, n in sorted(tally.items())}

    def quotas(self, shares: dict) -> dict:
        """Circuits per signature in a pool: the shares of the signatures
        without a 6-qubit merge, scaled to the pool by largest remainder."""
        kept = {sig: s for sig, s in shares.items() if not sig[2]}
        total = sum(kept.values())
        exact = {sig: self.pool * s / total for sig, s in kept.items()}
        out = {sig: int(x) for sig, x in exact.items()}
        by_remainder = sorted(exact, key=lambda sig: out[sig] - exact[sig])
        for sig in by_remainder[:self.pool - sum(out.values())]:
            out[sig] += 1
        return out

    def plan(self, pb, seed):
        """(draw index, signature) of each pool circuit, in draw order, and
        the census shares."""
        shares = self.shares(pb)
        need = self.quotas(shares)
        chosen = []
        for index in range(self.MAX_DRAWS):
            if not any(need.values()):
                return chosen, shares
            sig = merge_signature(pb, self.draw(pb, seed, index))
            if need.get(sig, 0) > 0:
                need[sig] -= 1
                chosen.append((index, sig))
        raise RuntimeError(f"no {self.name} pool for seed {seed} "
                           f"within {self.MAX_DRAWS} draws")

    def notes(self, plan):
        _, shares = plan
        return [f"census_share {''.join(map(str, sig))} {share!r} fraction"
                for sig, share in shares.items()]

    def generate(self, pb, seed, plan):
        chosen, _ = plan
        return [Item(*perturbed_round_trip(pb, self.draw(pb, seed, index)),
                     True, segments=((i, 0, self.n),))
                for i, (index, _) in enumerate(chosen)]

    def arrange(self, pb, items, plan):
        chosen, _ = plan
        light = [i for i, (_, sig) in enumerate(chosen) if sig == self.LIGHT]
        return with_twins(pb, items, [item.circuit for item in items], light,
                          perturbed_round_trip)

    def canary(self, pb):
        return "".join(perturbed_text(pb, self.draw(pb, 0, i))
                       for i in range(3))

    def run(self, pb, item):
        return pb.approx.run_approx(
            item.circuit, pb.approx.ApproxConfig(APPROX_P, APPROX_EPS))

    def same(self, a, b):
        return same_dist(a[0], b[0]) and \
            a[1].export_lines() == b[1].export_lines()

    def verify(self, pb, items, outputs):
        # The output equals, by rational identity, a blocked run of the same
        # circuit with each rotation replaced by its nearest exact gate.
        failed = set()
        expected = {}
        for item in items:
            if item.side != "wide":
                c = exact_surrogate(pb, item.circuit)
                expected[item.segments[0][0]] = \
                    pb.blocked.run_blocked_full(c, APPROX_P)[1]
        for item in items:
            # A twin whose narrow circuit gave no output has no reference.
            want = expected.get(item.segments[0][0])
            dist, ledger, cert = outputs[item]
            if not (want is not None and same_dist(dist, want)
                    and ledger_ok(ledger, cert, APPROX_P, APPROX_EPS,
                                  item.gates)):
                failed.add(item)
        return failed


def ledger_ok(ledger, cert, p: int, eps: float, steps: int) -> bool:
    """Each entry satisfies e_{j+1} == (2p+3)(e_j + eps) exactly, with the
    flag the engine's rule gives, and the certificate repeats the last."""
    if len(ledger.entries) != steps:
        return False
    e = 0.0
    for j, entry in enumerate(ledger.entries, 1):
        want = (2 * p + 3) * (e + eps)
        flag = "violated" if entry.d > (2 * p + 1) * (e + eps) else "ok"
        if entry.j != j or entry.e_bound != want or entry.flag != flag:
            return False
        e = want
    return (cert.e_final == e and cert.conditional_on_eps == eps
            and cert.hypothesis_violated
            == any(x.flag == "violated" for x in ledger.entries))


class CliffordMirror(Workload):
    name = "clifford-mirror"
    why = ("stabilizer engine on n=2000 mirror circuits U, Paulis, U^-1; the "
           "only workload for the tableau, every exact layer bypassed")
    n = 2000
    ONE_QUBIT = ("H", "S")
    TWO_QUBIT = ("CNOT", "CZ", "SWAP")

    def __init__(self, count: int = 8, u_gates: int = 50):
        self.count = count
        self.u_gates = u_gates

    def mirror(self, rng: random.Random):
        """U, a random Pauli on every qubit U touches, then U^-1 with S^-1
        written as S S S, as (gates, input bits, measured qubit, expected
        measured bit); gates are (name, qubits)."""
        u = []
        for _ in range(self.u_gates):
            if rng.random() < 0.5:
                u.append((rng.choice(self.ONE_QUBIT),
                          (rng.randrange(self.n),)))
            else:
                u.append((rng.choice(self.TWO_QUBIT),
                          tuple(rng.sample(range(self.n), 2))))
        support = sorted({q for _, qs in u for q in qs})
        layer = []
        for q in support:
            letter = rng.choice("IXYZ")
            if letter != "I":
                layer.append((letter, (q,)))
        inverse = [g for g in reversed(u)
                   for _ in range(3 if g[0] == "S" else 1)]
        bits = "".join(rng.choice("01") for _ in range(self.n))
        measured = rng.choice(support)
        flip = pauli_x_after(layer, inverse) >> measured & 1
        return u + layer + inverse, bits, measured, int(bits[measured]) ^ flip

    def circuit(self, pb, gates, bits, measured):
        lib = pb.circuits.LIBRARY
        steps = tuple(pb.circuits.CircuitStep(lib[name], qs)
                      for name, qs in gates)
        return pb.circuits.Circuit(self.n, bits, steps, measured)

    def plan(self, pb, seed):
        return [self.mirror(random.Random(sub_seed(self.name, seed, i)))
                for i in range(self.count)]

    def generate(self, pb, seed, plan):
        # The program has no generator of Clifford circuits: set-up builds
        # the planned circuits and reads them from text.
        return [Item(*round_trip(pb, self.circuit(pb, *spec)), True, "wide",
                     expect=expect) for *spec, expect in plan]

    def arrange(self, pb, items, plan):
        out = []
        for item in items:
            compact = compacted(pb, item.circuit)
            out += [item, Item(compact, pb.circuits.serialize_circuit(compact),
                               False, "narrow", expect=item.expect)]
        return out

    def canary(self, pb):
        return "".join(pb.circuits.serialize_circuit(self.circuit(
            pb, *self.mirror(random.Random(sub_seed(self.name, 0, i)))[:3]))
            for i in range(3))

    def run(self, pb, item):
        return pb.stabilizer.run_stabilizer(item.circuit)

    def same(self, a, b):
        return same_dist(a, b)

    def verify(self, pb, items, outputs):
        one, zero = pb.exact.ONE, pb.exact.ZERO
        failed = set()
        for item in items:
            want = (zero, one) if item.expect else (one, zero)
            if (outputs[item].p0, outputs[item].p1) != want:
                failed.add(item)
        return failed


def pauli_x_after(layer, gates) -> int:
    """X-part bitmask of the Pauli `layer` conjugated through `gates`, by
    symplectic bookkeeping alone (signs do not matter for the outcome)."""
    x = z = 0
    for letter, (q,) in layer:
        if letter in "XY":
            x ^= 1 << q
        if letter in "ZY":
            z ^= 1 << q
    for name, qs in gates:
        if name == "H":
            (q,) = qs
            xb, zb = x >> q & 1, z >> q & 1
            if xb != zb:
                x ^= 1 << q
                z ^= 1 << q
        elif name == "S":
            (q,) = qs
            z ^= (x >> q & 1) << q
        elif name == "CNOT":
            c, t = qs
            x ^= (x >> c & 1) << t
            z ^= (z >> t & 1) << c
        elif name == "CZ":
            a, b = qs
            z ^= (x >> b & 1) << a
            z ^= (x >> a & 1) << b
        elif name == "SWAP":
            a, b = qs
            pair = (1 << a) | (1 << b)
            if (x >> a ^ x >> b) & 1:
                x ^= pair
            if (z >> a ^ z >> b) & 1:
                z ^= pair
    return x


def compacted(pb, c):
    """The same circuit on only the qubits it touches."""
    used = sorted({q for s in c.steps for q in s.targets} | {c.measured_qubit})
    index = {q: i for i, q in enumerate(used)}
    steps = tuple(
        pb.circuits.CircuitStep(s.gate, tuple(index[q] for q in s.targets))
        for s in c.steps)
    bits = "".join(c.input_bits[q] for q in used)
    return pb.circuits.Circuit(len(used), bits, steps, index[c.measured_qubit])


WORKLOADS = {w.name: w for w in (LocalWide, EntangleSplit, ApproxPerturbed,
                                 CliffordMirror)}
