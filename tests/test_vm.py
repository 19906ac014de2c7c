import random

import pytest

from reference_impl import TmSpec, busy_beaver_bb_ref, enumerate_tm_specs, run_tm, set_interaction_evaluators

from kposet.busy_beaver import BB_STATE_BOUND, busy_beaver_row
from kposet.cli import main
from kposet.codec import b_index, b_word
from kposet.constructions import budgeted_limit, vm_max_evaluator
from kposet.enumerable import card_re_row
from kposet.errors import ConfigError, DomainError, ResourceError
from kposet.limits import NO_VALUE, STABILIZED, STILL_CHANGING
from kposet.posets import parse_poset_spec, reverse
from kposet.vm import assemble, parse_program, run_emitting

NAT = parse_poset_spec("nat")


def test_parse_program():
    assert parse_program("111") == (("HALT", None),)
    assert parse_program("11") is None
    assert parse_program("000111") == (("INC_A", None), ("HALT", None))
    assert parse_program("") == ()
    assert parse_program("100") is None  # jump missing its offset
    assert parse_program("10000000") == (("JZ_A", 0),)
    assert parse_program("10011111") == (("JZ_A", -1),)
    with pytest.raises(DomainError, match="not a binary word"):
        parse_program("0120")


def test_assemble_roundtrip():
    progs = [
        ["HALT"],
        ["INC_A", "OUT", "HALT"],
        [("JZ_B", -2), "INC_A", ("JZ_A", 15)],
    ]
    for prog in progs:
        code = assemble(prog)
        parsed = parse_program(code)
        normalized = tuple(
            (p, None) if isinstance(p, str) else p for p in prog
        )
        assert parsed == normalized
    with pytest.raises(ConfigError):
        assemble([("JZ_A", 16)])


def test_run_emitting_examples():
    code = assemble(["INC_A", "OUT", "INC_A", "OUT", "HALT"])
    res = run_emitting(NAT, code, 0, 100)
    assert [d for _, d in res.trace] == [1, 2]
    assert res.halted
    code = assemble(["OUT", "DEC_A", "OUT", "HALT"])
    res = run_emitting(NAT, code, 0, 100)
    assert [d for _, d in res.trace] == [0]
    assert res.halted
    res = run_emitting(NAT, "11", 0, 50)  # parse failure
    assert res.trace == ()
    assert not res.halted
    assert res.steps_used == 50


def test_filter_skips_downward_emissions():
    code = assemble(["INC_A", "OUT", "DEC_A", "OUT", "HALT"])
    res = run_emitting(NAT, code, 0, 100)
    assert [d for _, d in res.trace] == [1]
    rev_res = run_emitting(reverse(NAT), code, 0, 100)
    assert [d for _, d in rev_res.trace] == [1, 0]


def test_trace_steps_are_emission_steps():
    code = assemble(["INC_A", "OUT", "INC_A", "OUT", "HALT"])
    res = run_emitting(NAT, code, 0, 100)
    assert res.trace == ((1, 1), (3, 2))


def test_determinism_and_fuel_prefix():
    rng = random.Random(9)
    for _ in range(400):
        bits = "".join(rng.choice("01") for _ in range(rng.randrange(0, 25)))
        a = run_emitting(NAT, bits, 3, 64)
        b = run_emitting(NAT, bits, 3, 64)
        assert a == b
        small = run_emitting(NAT, bits, 3, 32)
        assert a.trace[: len(small.trace)] == small.trace


def test_kept_traces_increase():
    rng = random.Random(13)
    checked = 0
    for _ in range(10_000):
        bits = "".join(rng.choice("01") for _ in range(rng.randrange(0, 25)))
        res = run_emitting(NAT, bits, rng.randrange(0, 4), 48)
        vals = [d for _, d in res.trace]
        for x, y in zip(vals, vals[1:]):
            assert NAT.lt(x, y)
        checked += len(vals) > 1
    assert checked > 5


def test_dead_spin_on_bad_jump():
    code = assemble([("JZ_A", 15)])  # target far out of range
    res = run_emitting(NAT, code, 0, 40)
    assert not res.halted
    assert res.steps_used == 40


def test_cycle_shortcut_preserves_semantics():
    # OUT in a tight loop proposes the same value forever
    code = assemble(["OUT", ("JZ_B", -1)])
    res = run_emitting(NAT, code, 0, 10_000)
    assert [d for _, d in res.trace] == [0]
    assert not res.halted
    assert res.steps_used == 10_000


def test_vm_max_evaluator():
    code = assemble(["OUT", "HALT"])
    e = vm_max_evaluator(NAT, code)
    assert e(0, 0, 10) == 0
    assert e(0, 5, 10) == 0
    assert e(0, 5, 3) is None  # fuel must cover the simulation
    bad = vm_max_evaluator(NAT, "11")
    assert all(bad(0, t, 20) is None for t in range(5))
    two = assemble(["INC_A", "OUT", "INC_A", "INC_A", "OUT", "HALT"])
    e2 = vm_max_evaluator(NAT, two)
    assert e2(0, 1, 20) == 1
    assert e2(0, 3, 20) == 1
    assert e2(0, 4, 20) == 3
    rep = budgeted_limit(NAT, e2, 0, 10, 20, window=2)
    assert rep.current == 3 and rep.status == STABILIZED


def test_vm_max_evaluator_reads_input():
    # JZ_B branches on the input register
    code = assemble([("JZ_B", 4), "INC_A", "OUT", "HALT", "OUT", "HALT"])
    e = vm_max_evaluator(NAT, code)
    assert budgeted_limit(NAT, e, 0, 10, 20, window=2).current == 0
    assert budgeted_limit(NAT, e, 1, 10, 20, window=2).current == 1


def test_busy_beaver_basics():
    for n in (0, 1):
        assert busy_beaver_row(n, 0)[0] == 0
    assert busy_beaver_row(0, 1)[1] == 2  # one halting move visits two cells
    row0 = busy_beaver_row(0, 10)
    assert row0 == [busy_beaver_bb_ref(0, t) for t in range(11)]
    for a, b in zip(row0, row0[1:]):
        assert a <= b
    with pytest.raises(ResourceError):
        busy_beaver_row(BB_STATE_BOUND + 1, 5)
    for n, t_max in ((-1, 5), (1, -1), (BB_STATE_BOUND + 1, -1)):
        with pytest.raises(ConfigError):
            busy_beaver_row(n, t_max)


def test_busy_beaver_monotone_in_states():
    for t in (0, 3, 8):
        assert busy_beaver_row(0, t)[t] <= busy_beaver_row(1, t)[t]


def test_tm_spec_run():
    spec = TmSpec(1, {(0, 0): (1, "R", "H"), (0, 1): (1, "L", 0)})
    halted, steps, cells = run_tm(spec, 10)
    assert halted and steps == 1 and cells == 2
    with pytest.raises(ConfigError):
        TmSpec(1, {(0, 0): (1, "R", "H")})


def _row_process(row):
    """The evaluator whose value at (x, t, fuel) is row[t]."""
    return lambda _x, t, _fuel: row[t]


def test_card_re():
    code = assemble(
        ["INC_A", "INC_A", "OUT", "OUT", "INC_A", "INC_A", "INC_A", "OUT", "HALT"]
    )
    n = b_index(code)
    vals = card_re_row(n, 11)
    assert vals[0] == 0
    assert vals[-1] == 2  # distinct emissions are {2, 5}
    for a, b in zip(vals, vals[1:]):
        assert a <= b
    rep = budgeted_limit(NAT, _row_process(card_re_row(n, 20)), None, 20, 20, window=2)
    assert rep.current == 2 and rep.status == STABILIZED


def test_card_re_parse_failure_counts_zero():
    n = b_index("11")
    assert card_re_row(n, 5) == [0] * 6
    rep = budgeted_limit(NAT, _row_process(card_re_row(n, 10)), None, 10, 10, window=2)
    assert rep.current == 0


def test_card_re_unbounded():
    code = assemble(["INC_A", "OUT", ("JZ_B", -2)])
    n = b_index(code)
    assert card_re_row(n, 40)[40] > card_re_row(n, 20)[20] > 0
    rep = budgeted_limit(NAT, _row_process(card_re_row(n, 60)), None, 60, 60, window=5)
    assert rep.status == STILL_CHANGING


def test_card_re_matches_bruteforce_distinct_count():
    rng = random.Random(31)
    for _ in range(200):
        bits = "".join(rng.choice("01") for _ in range(rng.randrange(0, 20)))
        n = b_index(bits)
        res = run_emitting(NAT, bits, 0, 30)
        row = card_re_row(n, 30)
        for t in range(31):
            log = [v for step, v in res.raw_first if step < t]
            assert row[t] == len(set(log)), (bits, t)


FINSETS = parse_poset_spec("finsets")


def test_set_interactions():
    prog_13 = b_index(assemble(["INC_A", "OUT", "INC_A", "INC_A", "OUT", "HALT"]))
    cap = set_interaction_evaluators(prog_13, "cap")
    rep = budgeted_limit(FINSETS, cap, (1, 2), 20, 20, window=2)
    assert rep.current == (1,)
    setminus = set_interaction_evaluators(prog_13, "setminus")
    rep = budgeted_limit(reverse(FINSETS), setminus, (1, 2), 20, 20, window=2)
    assert rep.current == (2,)
    prog_1 = b_index(assemble(["INC_A", "OUT", "HALT"]))
    minus = set_interaction_evaluators(prog_1, "minus")
    rep = budgeted_limit(FINSETS, minus, (3,), 20, 20, window=2)
    assert rep.current == (2,)
    with pytest.raises(ConfigError):
        set_interaction_evaluators(0, "union")


def test_interaction_trace_ceiling_keeps_no_partial_trace():
    # each query past the ceiling raises; the cut-off trace is not kept
    minus = set_interaction_evaluators(b_index("00011010111110"), "minus")
    xs = (0, 5, 10**9)
    assert minus(xs, 10, 3000) == (2, 3, 4, 10**9 - 3, 10**9 - 2, 10**9 - 1)  # 1, 2, 3 emitted
    for _ in range(2):
        with pytest.raises(ResourceError, match="1000000 listed members at t=4226"):
            minus(xs, 10, 10000)


@pytest.fixture
def machine_runs(monkeypatch):
    """The fuel of every machine run, in order."""
    from kposet import enumerable, vm

    fuels = []
    execute = vm._execute

    def counted(instrs, input_b, fuel):
        fuels.append(fuel)
        return execute(instrs, input_b, fuel)

    for module in (vm, enumerable):  # enumerable binds the kernel by name
        monkeypatch.setattr(module, "_execute", counted)
    return fuels


UNBOUNDED = assemble(["INC_A", "OUT", ("JZ_B", -2)])  # emits 1, 2, 3, ...


def test_card_re_runs_the_machine_once(machine_runs):
    row = card_re_row(b_index(UNBOUNDED), 100)
    assert [row[t] for t in (0, 20, 50, 100)] == [0, 7, 17, 33]
    assert machine_runs == [100]


@pytest.mark.parametrize("t_max", [5, 3000])
def test_cardre_runs_the_machine_once(machine_runs, capsys, t_max):
    # every row comes from one run at fuel t_max
    code = main(["cardre", "--program", UNBOUNDED, "--t-max", str(t_max)])
    assert (code, capsys.readouterr().err) == (0, "")
    assert machine_runs == [t_max]


@pytest.mark.parametrize("mode", ["cap", "minus", "setminus"])
def test_set_interactions_share_one_machine_run(machine_runs, mode):
    e = set_interaction_evaluators(b_index(UNBOUNDED), mode)
    sets = [(), (1,), (0, 2, 40), (3, 5, 7, 90)]
    first = [e(x, 100, 100) for x in sets]
    lower = [e(x, 20, 50) for x in sets]  # less fuel: read from the same run
    assert machine_runs == [100]
    assert [e(x, 100, 300) for x in sets] == first  # more fuel: one run for every set
    assert machine_runs == [100, 300]
    fresh = set_interaction_evaluators(b_index(UNBOUNDED), mode)
    assert lower == [fresh(x, 20, 50) for x in sets]


@pytest.mark.parametrize("mode", ["cap", "minus", "setminus"])
@pytest.mark.parametrize("t_budget", [5, 3000])
def test_interact_runs_the_machine_once(machine_runs, capsys, mode, t_budget):
    # the whole trace comes from one run at fuel t_budget
    code = main(["interact", "--program", UNBOUNDED, "--mode", mode, "--x", "0,2,5,40",
                 "--t-budget", str(t_budget)])
    assert (code, capsys.readouterr().err) == (0, "")
    assert machine_runs == [t_budget]


def test_vm_max_evaluator_runs_once_per_input(machine_runs):
    e = vm_max_evaluator(NAT, UNBOUNDED)
    assert [e(x, t, 100) for x in (0, 1) for t in (0, 50, 99)] == [None, 17, 33, None, 1, 1]
    assert e(0, 20, 30) == 7
    assert machine_runs == [100, 100]
    assert e(0, 150, 150) == 50
    assert machine_runs == [100, 100, 200]


def test_enumerate_tm_specs_count():
    assert sum(1 for _ in enumerate_tm_specs(1)) == 64
