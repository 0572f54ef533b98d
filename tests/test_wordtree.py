"""The word-tree engine against the per-word solver queries it replaced."""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from petctraffic import (abstraction, cli, contraction, qfnra, ratlin,
                         satcheck, semantics, wordtree)
from conftest import (bundled, conic_base_point, fraction_root_value,
                      fraction_shell_base, full_sample_decide,
                      full_sample_prefix, oracle_check, oracle_models,
                      random_stabilized_disc, refine_arcs,
                      simplest_sqrt_in, sublevel_terminal_atoms,
                      unit_terminal_atoms, word_maps)

F = Fraction


def test_pullback_matches_congruence(ci_disc):
    # the integer V form of a node that keeps an arc is V(Phi u) up to a
    # positive factor
    engine = wordtree.WordEngine(ci_disc)
    node = engine.node((3, 1, 1))
    assert node.arcs
    phi = ratlin.identity(2)
    for k in node.word:
        phi = ratlin.mat_mul(ci_disc.M[k], phi)
    f = ratlin.congruence(ci_disc.P_rat, phi)
    exact = (f[1][1], f[0][1] + f[1][0], f[0][0])
    form, scale = node.form
    ratio = {F(a) / b for a, b in zip(form, exact)}
    assert len(ratio) == 1 and ratio.pop() > 0
    assert node.phi == tuple(tuple(e * scale for e in row) for row in phi)


def _recorded_build(disc, N, monkeypatch):
    """Both models built on the engine, with every query it decided:
    (node, shell, status, witness)."""
    decided = []
    decide = wordtree.WordEngine.decide

    def recording_decide(self, node, shell):
        res = decide(self, node, shell)
        decided.append((node, shell, res.status, res.witness))
        return res

    monkeypatch.setattr(wordtree.WordEngine, "decide", recording_decide)
    bisim = abstraction.build_mpetc_bisim(disc, N)
    sim = abstraction.build_petc_sim(disc, bisim)
    return bisim, sim, decided


def _memo(table, compute):
    """An oracle_models check that looks each query up in table, and
    computes and stores it there when it is missing."""
    def check(disc, word, shell, terminal):
        key = word, shell, terminal
        if key not in table:
            table[key] = compute(word, shell, terminal)
        return table[key]
    return check


def _case(case, request):
    """(disc, N) of a named case: the r = 1/2 fixture or a bundled one."""
    if case == "ci":
        return (request.getfixturevalue("ci_disc"),
                request.getfixturevalue("ci_N"))
    cfg, disc = bundled(case)
    _, n, _ = cli.run_contraction(cfg, disc)
    return disc, n


@pytest.mark.parametrize("case", ["ci", "r4_5", "one_dim", "cs"])
def test_engine_matches_per_word_oracle(case, request, monkeypatch):
    # every full and unit-shell query of both builds, on the r = 1/2
    # fixture, on the bundled loop at r = 4/5, on a scalar plant (words
    # (6,), (6, 6), (6, 6, 6); only the last on the shell) and on the
    # bundled example (r = 1/10).  The feasible arcs give the status and
    # the witness of the full-sample kernel on every query; the per-word
    # oracle gives the same status, except on the bundled example, where
    # its queries take minutes.  The engine prunes a word by its unsat
    # full query; the reference models prune by the written prefix query.
    # A full query whose prefix query is unsat is unsat, so the references
    # decide only the prefix query of such a word
    disc, n = _case(case, request)
    bisim, sim, decided = _recorded_build(disc, n, monkeypatch)
    engine = bisim.tree

    def full_sample(word, shell, terminal):
        return (full_sample_decide(engine, word, shell) if terminal
                else full_sample_prefix(engine, word))

    full = _memo({}, full_sample)
    checks = [full]
    if case != "cs":
        checks.append(_memo({}, lambda *key: oracle_check(disc, *key)))
    for node, shell, status, witness in decided:
        key = node.word, shell
        for check in checks:
            ref = (satcheck.SatResult("unsat") if shell == satcheck.SUBLEVEL
                   and check(disc, *key, False).status == "unsat"
                   else check(disc, *key, True))
            assert status == ref.status, key
            if check is full:
                assert witness == ref.witness, key
        if witness is not None:
            query = satcheck.sequence_query(disc, node.word, shell, True)
            assert query.holds(witness), key
    assert {shell for _, shell, _, _ in decided} == {
        satcheck.SUBLEVEL, satcheck.UNIT_LEVEL}
    assert {status for _, _, status, _ in decided} == {"sat", "unsat"}
    for check in checks:
        o_bisim, o_sim = oracle_models(disc, n, check)
        for model, ref in ((bisim, o_bisim), (sim, o_sim)):
            assert model.states == ref.states
            assert model.edges == ref.edges
            assert model.assumed == ref.assumed == frozenset()
        if check is full:
            assert sim.witnesses == o_sim.witnesses
            assert bisim.witnesses == {
                abstraction.EPSILON: (F(0),) * disc.n_x, **o_bisim.witnesses}


@pytest.mark.parametrize("case", ["ci", "r4_5", "cs"])
def test_sublevel_terminal_atoms_cut_no_arc(case, request):
    # at every node of the bisimilar build with feasible arcs, the atoms
    # v_m < v_i that decide leaves out neither cut nor drop an arc
    disc, n = _case(case, request)
    engine = abstraction.build_mpetc_bisim(disc, n).tree
    nodes, live = [engine.root], 0
    while nodes:
        node = nodes.pop()
        nodes.extend(node.children.values())
        if node is engine.root or not node.arcs:
            continue
        live += 1
        atoms = sublevel_terminal_atoms(engine, node.word)
        assert refine_arcs(node.arcs, atoms) == node.arcs, node.word
    assert live > 0


def _root_key(root):
    """A root's value when it is rational, else its defining integers."""
    v = fraction_root_value(root)
    return (root.a, root.b, root.disc, root.eps) if v is None else v


def _arc_key(arc):
    """An arc (direction, bounds) with each qfnra.Root replaced by its
    _root_key, and each bounding root by its _root_key and enclosure, so
    that equal arcs made by two cuts compare equal."""
    direction, bounds = arc
    if isinstance(direction, qfnra.Root):
        direction = _root_key(direction)
    if bounds is not None:
        bounds = tuple(None if b is None else (_root_key(b), b.enc)
                       for b in bounds)
    return direction, bounds


@pytest.mark.parametrize("case", ["ci", "r4_5", "cs"])
def test_shell_is_the_dropped_pieces(case, request):
    # at every split node of both builds, node.shell is the node's arcs
    # cut at its own trigger forms and refined by its unit-shell terminal
    # atom v_m <= r v_0; a node of the horizon's length N keeps every arc
    # in its shell, so its children keep none
    disc, n = _case(case, request)
    bisim = abstraction.build_mpetc_bisim(disc, n)
    engine = bisim.tree
    abstraction.build_petc_sim(disc, bisim)
    nodes, split, shells = [engine.root], 0, 0
    while nodes:
        node = nodes.pop()
        nodes.extend(node.children.values())
        if not node.children:
            continue
        split += 1
        phi = word_maps(engine, node.word)[-1][0]
        triggers = [qfnra.primitive(wordtree._pullback(f, phi))
                    for f in engine._stepper.forms[disc.k_lo - 1:]]
        cut = qfnra.cut_arcs(node.arcs, qfnra.enclosed_roots(triggers))
        ref = refine_arcs(cut, unit_terminal_atoms(engine, node.word))
        assert [_arc_key(a) for a in node.shell] == \
            [_arc_key(a) for a in ref], node.word
        shells += bool(node.shell)
        if len(node.word) == n:
            assert all(child.arcs == [] for child in node.children.values())
    assert split > 0 and shells > 0


@pytest.mark.parametrize("case", ["ci", "r4_5", "cs"])
def test_children_split_by_kappa(case, request):
    # at every expanded node of the bisimilar build, every arc of child k
    # has kappa = k at its sample, and v_m > r v_0 there for a non-empty
    # word: semantics.kappa and disc.V at Phi u for a rational direction
    # u, exact signs of the Fraction trigger forms N(j) o Phi at a root
    disc, n = _case(case, request)
    assert disc.k_lo == 1
    engine = abstraction.build_mpetc_bisim(disc, n).tree
    nodes, arcs, roots = [engine.root], 0, 0
    while nodes:
        node = nodes.pop()
        nodes.extend(node.children.values())
        if node.arcs == []:
            # nothing expands a node that keeps no arc
            assert node.phi is node.form is node.parent_form is None
            assert not node.children
            continue
        phi = [[F(v, node.form[1]) for v in row] for row in node.phi]
        triggers = []
        for j in range(1, disc.k_bar):
            f = ratlin.congruence(disc.N[j], phi)
            triggers.append((f[1][1], f[0][1] + f[1][0], f[0][0]))
        for k, child in node.children.items():
            for direction, _ in child.arcs:
                arcs += 1
                if isinstance(direction, qfnra.Root):
                    roots += 1
                    kappa = next((j for j, f in enumerate(triggers, 1)
                                  if qfnra.sign(f, direction) > 0),
                                 disc.k_bar)
                    assert kappa == k, (node.word, k, direction)
                    continue
                u = tuple(F(v) for v in direction)
                x = ratlin.mat_vec(phi, u)
                assert semantics.kappa(disc, x) == k, (node.word, k, u)
                if node.word:
                    assert disc.V(x) > disc.r * disc.V(u), (node.word, u)
    assert arcs > 0 and roots > 0


def test_pipeline_builds_one_word_tree(monkeypatch):
    # both builds of run_pipeline walk the same WordEngine
    made = []
    init = wordtree.WordEngine.__init__

    def counting_init(self, disc):
        made.append(disc)
        init(self, disc)

    monkeypatch.setattr(wordtree.WordEngine, "__init__", counting_init)
    cfg, _ = bundled("r4_5")
    res = cli.run_pipeline(cfg)
    assert len(made) == 1 and made[0] is res.disc
    assert res.bisim.tree is not None and res.sim.tree is None


def test_engine_scales_the_loop_once(ci_disc, monkeypatch):
    # the engine takes its integer maps and forms from its stepper: one
    # integer_form per trigger form and one for P, k_bar in all, through
    # either import path
    calls = []
    integer_form = ratlin.integer_form

    def counting(m):
        calls.append(m)
        return integer_form(m)

    monkeypatch.setattr(ratlin, "integer_form", counting)
    monkeypatch.setattr(wordtree, "integer_form", counting, raising=False)
    engine = wordtree.WordEngine(ci_disc)
    assert len(calls) == ci_disc.k_bar
    assert engine._stepper.forms == [
        integer_form(ratlin.padded(ci_disc.N[k]))
        for k in range(1, ci_disc.k_bar)]


def test_engine_rejects_three_variables(ci_disc):
    with pytest.raises(ValueError, match="3 variables not supported"):
        wordtree.WordEngine(dataclasses.replace(
            ci_disc, P_rat=ratlin.identity(3)))


def _perturbed(x):
    """x, x scaled by 1 +- 2^-40, and each coordinate of x moved by
    +-2^-6 (|x_i| + 1)."""
    out = [x] + [tuple(v * (1 + step) for v in x)
                 for step in (F(1, 2**40), F(-1, 2**40))]
    for i, v in enumerate(x):
        for step in (F(1, 2**6), F(-1, 2**6)):
            out.append(x[:i] + (v + step * (abs(v) + 1),) + x[i + 1:])
    return out


@pytest.mark.parametrize("case", ["ci", "r4_5", "cs", "one_dim"])
def test_integer_reverify_matches_sequence_query(case, request):
    # every witness of both builds and its perturbed copies, on its own
    # word, its prefix, a one-letter extension and its word with another
    # last letter: WordEngine.holds gives the verdict of the query that
    # satcheck.sequence_query writes
    disc, n = _case(case, request)
    bisim = abstraction.build_mpetc_bisim(disc, n)
    sim = abstraction.build_petc_sim(disc, bisim)
    engine = wordtree.WordEngine(disc)
    queries, verdicts = {}, set()
    for model, shell in ((bisim, satcheck.SUBLEVEL),
                         (sim, satcheck.UNIT_LEVEL)):
        for w, x in model.witnesses.items():
            if not w:
                continue
            other = disc.k_bar if w[-1] != disc.k_bar else disc.k_lo
            words = [w, w + (w[0],), w[:-1] + (other,)]
            if len(w) > 1:
                words.append(w[:-1])
            for word in words:
                if (word, shell) not in queries:
                    queries[word, shell] = satcheck.sequence_query(
                        disc, word, shell, True)
                for y in _perturbed(x):
                    verdict = queries[word, shell].holds(y)
                    assert engine.holds(word, shell, y) == verdict, (word, y)
                    verdicts.add(verdict)
            assert engine.holds(w, shell, x)
    assert verdicts == {True, False}


@pytest.mark.parametrize("shell", [satcheck.SUBLEVEL, satcheck.UNIT_LEVEL])
def test_corrupted_witness_is_unknown(shell, tmp_path, monkeypatch, capsys):
    # a witness moved just outside V <= V0, or just off the unit shell,
    # fails re-verification: decide answers unknown, and the build exits 4
    witness = wordtree.WordEngine._witness

    def corrupted(self, node, sh, direction, bounds):
        x = witness(self, node, sh, direction, bounds)
        if x is None or sh != shell:
            return x
        if shell == satcheck.UNIT_LEVEL:
            return tuple(v * (1 + F(1, 2**60)) for v in x)
        t = self.disc.V0 / self.disc.V(x)  # V(s x) = s^2 V(x) just above V0
        s = simplest_sqrt_in(t, t * (1 + F(1, 2**60)))
        return tuple(s * v for v in x)

    _, disc = bundled("r4_5")
    engine = wordtree.WordEngine(disc)
    node = engine.node((2,))
    assert engine.decide(node, shell).status == "sat"
    monkeypatch.setattr(wordtree.WordEngine, "_witness", corrupted)
    res = engine.decide(node, shell)
    assert res.status == "unknown" and "re-verification" in res.reason
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(json.loads(
        (Path(cli.__file__).parent / "data" / "casestudy.json").read_text()),
        r=0.8)))
    assert cli.main(["abstract", "--config", str(config)]) == \
        cli.EXIT_UNDECIDED
    err = capsys.readouterr().err
    assert "re-verification" in err and len(err.splitlines()) == 1


# the two P_lyap of the robustness sweep whose unit shell V = 1 has no
# rational point: 8 V = 12x^2 + 6xy + 3y^2 is X^2 + 3Y^2 with X = 3x,
# Y = x + y, which is never 8 (mod 3); the second likewise
NO_POINT_P = (((F(3, 2), F(3, 8)), (F(3, 8), F(3, 8))),
              ((F(5, 4), F(3, 8)), (F(3, 8), F(3, 8))))


def _shell_engine(disc, p, v0):
    """A WordEngine of disc with the Lyapunov matrix p and V0 = v0."""
    return wordtree.WordEngine(dataclasses.replace(disc, P_rat=p, V0=v0))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 16), st.integers(-16, 16), st.integers(1, 16),
       st.one_of(st.tuples(st.integers(-32, 32), st.integers(-32, 32),
                           st.integers(1, 8)),
                 st.fractions(min_value=F(1, 8), max_value=8,
                              max_denominator=16)))
@example(24, 12, 6, F(1)).via("the first no-point P_lyap")
@example(20, 12, 6, F(1)).via("the second no-point P_lyap")
def test_base_found_where_conic_search_finds_a_point(ci_disc, a, b, c, v0):
    # the base search (WordEngine._base) finds a direction b with
    # V0 / V(b) a rational square wherever the conic search it replaced
    # finds a rational point with V = V0, and it is the first such b of
    # the Fraction search; V0 is drawn as V at a point (p, q) / d of that
    # search's grid, or at random, on P = ((a, b / 2), (b / 2, c)) / 16
    if 4 * a * c <= b * b:
        return
    p = ((F(a, 16), F(b, 32)), (F(b, 32), F(c, 16)))
    if isinstance(v0, tuple):
        pn, qn, d = v0
        if (pn, qn) == (0, 0):
            return
        v0 = ratlin.quad_form(p, (F(pn, d), F(qn, d)))
    engine = _shell_engine(ci_disc, p, v0)
    base = engine._base
    assert base == fraction_shell_base(p, v0)
    if conic_base_point(p, v0) is not None:
        assert base is not None
    if base is not None:
        assert engine.disc.V(engine._shell_point(base)) == v0


@pytest.mark.parametrize("p", NO_POINT_P)
def test_no_base_without_a_rational_point(ci_disc, p):
    assert conic_base_point(p, F(1)) is None
    assert _shell_engine(ci_disc, p, F(1))._base is None


def test_sweep_shell_witnesses(monkeypatch):
    # on 100 seeded random stabilized plants, every kept simulating
    # witness lies on the unit shell exactly and replays to its word;
    # most come from a reflection, and a unit-shell build fails only
    # without a base direction (6 plants, as the conic search failed)
    reflected, reflect = [], qfnra.reflect

    def recording_reflect(*args):
        reflected.append(args)
        return reflect(*args)

    monkeypatch.setattr(qfnra, "reflect", recording_reflect)
    rng, built, kept, failed = np.random.default_rng(19), 0, 0, 0
    while built < 100:
        disc = random_stabilized_disc(rng)
        if disc is None:
            continue
        n = contraction.compute_N(contraction.compute_a(disc).a, disc.r)
        if n > 12:
            continue
        built += 1
        bisim = abstraction.build_mpetc_bisim(disc, n)
        try:
            sim = abstraction.build_petc_sim(disc, bisim)
        except satcheck.SolverUnknownError:
            assert bisim.tree._base is None
            failed += 1
            continue
        stepper = semantics.IntegerStepper(disc)
        for word, x in sim.witnesses.items():
            assert disc.V(x) == disc.V0, word
            run = stepper.entry_run(stepper.orbit(x), len(word))
            assert tuple(pt.k for pt in run) == word
        kept += len(sim.witnesses)
    assert kept and reflected and failed == 6
