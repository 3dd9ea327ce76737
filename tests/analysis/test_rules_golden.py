"""Golden flagged/clean fixture pairs for every rule in the catalogue.

Each rule gets (at least) one minimal source that MUST be flagged and one
near-identical source that MUST stay clean — the pairs pin down both the
detection and the zero-false-positive stance of the engine.
"""

import textwrap

from repro.analysis import lint_source


def run(src):
    return lint_source(textwrap.dedent(src))


def codes(src):
    return [f.code for f in run(src)]


# ------------------------------------------------------- SPMD101 (interproc)


def test_101_flagged_collective_via_helper_under_rank_branch():
    src = """
    def fold(comm, x):
        return comm.allreduce(x)

    def main(comm):
        if comm.rank == 0:
            fold(comm, 1)
    """
    fs = run(src)
    assert [f.code for f in fs] == ["SPMD101"]
    assert "via fold" in fs[0].message
    assert "helper" in fs[0].message
    # anchored at the call site inside main, not inside the helper
    assert fs[0].function == "main"


def test_101_flagged_two_helpers_deep():
    src = """
    def inner(comm):
        comm.barrier()

    def outer(comm):
        inner(comm)

    def main(comm):
        if comm.rank % 2:
            outer(comm)
    """
    fs = run(src)
    assert [f.code for f in fs] == ["SPMD101"]
    assert "outer->inner" in fs[0].message


def test_101_clean_same_helper_on_both_branches():
    src = """
    def fold(comm, x):
        return comm.allreduce(x)

    def main(comm):
        if comm.rank == 0:
            return fold(comm, local)
        else:
            return fold(comm, None)
    """
    assert run(src) == []


def test_101_flagged_early_return_skips_later_collective():
    src = """
    def main(comm):
        if comm.rank == 0:
            return None
        comm.barrier()
    """
    assert codes(src) == ["SPMD101"]


def test_101_clean_early_return_with_matching_collective():
    src = """
    def main(comm):
        if comm.rank == 0:
            comm.bcast(data, root=0)
            return data
        out = comm.bcast(None, root=0)
        return out
    """
    assert run(src) == []


def test_101_clean_raising_branch_is_abort_not_divergence():
    src = """
    def main(comm):
        if comm.rank == 0:
            if bad_input:
                raise ValueError("bad input")
        comm.barrier()
    """
    assert run(src) == []


def test_101_clean_data_dependent_helper_is_indefinite():
    # the helper's collectives depend on data, so the comparison is
    # indefinite -> no finding (zero-false-positive stance)
    src = """
    def maybe_fold(comm, x):
        if x > 0:
            comm.allreduce(x)

    def main(comm):
        if comm.rank == 0:
            maybe_fold(comm, v)
        else:
            maybe_fold(comm, w)
    """
    assert run(src) == []


def test_101_recursive_helpers_do_not_hang_or_flag():
    src = """
    def ping(comm, n):
        if n > 0:
            pong(comm, n - 1)

    def pong(comm, n):
        ping(comm, n)

    def main(comm):
        if comm.rank == 0:
            ping(comm, 3)
    """
    assert run(src) == []


# ------------------------------------------------------------------- SPMD102


def test_102_flagged_collective_in_rank_loop_via_helper():
    src = """
    def step(comm):
        comm.barrier()

    def main(comm):
        for _ in range(comm.rank + 1):
            step(comm)
    """
    fs = run(src)
    assert [f.code for f in fs] == ["SPMD102"]
    assert "barrier" in fs[0].message


def test_102_clean_uniform_loop_via_helper():
    src = """
    def step(comm):
        comm.barrier()

    def main(comm):
        for _ in range(8):
            step(comm)
    """
    assert run(src) == []


# ------------------------------------------------------------------- SPMD301


def test_301_flagged_free_then_access_via_loop_back_edge():
    # textually the access precedes the free; only the CFG back edge
    # exposes the use-after-free on the second iteration
    src = """
    def main(comm, n):
        win = Window(comm, local)
        win.fence()
        for i in range(n):
            win.put(i, 0, 1)
            win.free()
    """
    fs = run(src)
    assert [f.code for f in fs] == ["SPMD301"]
    assert "free" in fs[0].message


def test_301_clean_free_after_loop():
    src = """
    def main(comm, n):
        win = Window(comm, local)
        win.fence()
        for i in range(n):
            win.put(i, 0, 1)
        win.fence()
        win.free()
    """
    assert run(src) == []


def test_301_flagged_parameter_window_access_before_fence():
    src = """
    def main(comm, win):
        win.put(0, 0, 1)
        win.fence()
    """
    assert codes(src) == ["SPMD301"]


def test_301_nested_function_not_attributed_to_encloser():
    # the first-generation rule used ast.walk and double-reported nested
    # functions' accesses against the enclosing function's windows
    src = """
    def outer(comm):
        win = Window(comm, local)
        win.fence()
        win.put(0, 0, 1)
        win.fence()

        def helper(w):
            w.accumulate(0, 0, 1)

        return helper
    """
    assert run(src) == []


# ------------------------------------------------------------------- SPMD401


def test_401_seeding_stdlib_does_not_excuse_numpy():
    # the first-generation linter suppressed the whole module on *any*
    # .seed() call; scopes must not cross-excuse
    src = """
    import random
    import numpy as np

    def main(comm):
        random.seed(0)
        np.random.shuffle(order)
    """
    fs = run(src)
    assert [f.code for f in fs] == ["SPMD401"]
    assert "np.random.shuffle" in fs[0].message


def test_401_seeding_is_per_function_not_per_module():
    src = """
    import numpy as np

    def seeded(comm):
        np.random.seed(comm.rank)
        np.random.shuffle(order)

    def unseeded(comm):
        np.random.shuffle(order)
    """
    fs = run(src)
    assert [(f.code, f.function) for f in fs] == [("SPMD401", "unseeded")]


def test_401_module_level_seed_excuses_matching_scope():
    src = """
    import numpy as np
    np.random.seed(1234)

    def main(comm):
        np.random.shuffle(order)
    """
    assert run(src) == []


def test_401_seed_must_precede_the_draw():
    src = """
    import numpy as np

    def main(comm):
        np.random.shuffle(order)
        np.random.seed(0)
    """
    assert codes(src) == ["SPMD401"]


# --------------------------------------------------------------- SPMD601-603


def test_601_flagged_and_clean_pair():
    flagged = """
    def main(comm, edges):
        frontier = set(edges)
        mate = {}
        for u in frontier:
            mate[u] = u + 1
        return comm.allgather(mate)
    """
    clean = """
    def main(comm, edges):
        frontier = set(edges)
        mate = {}
        for u in sorted(frontier):
            mate[u] = u + 1
        return comm.allgather(mate)
    """
    assert codes(flagged) == ["SPMD601"]
    assert run(clean) == []


def test_602_flagged_and_clean_pair():
    flagged = """
    import time

    def main(comm):
        t = time.perf_counter_ns()
        return comm.allgather(t % 97)
    """
    clean = """
    import time

    def profile():
        return time.perf_counter_ns()
    """
    assert codes(flagged) == ["SPMD602"]
    assert run(clean) == []  # not an SPMD function: clocks are fine


def test_603_flagged_and_clean_pair():
    flagged = """
    def main(comm, weights):
        pool = set(weights)
        total = 0.0
        for w in pool:
            total += w
        return comm.allreduce(total)
    """
    clean = """
    def main(comm, weights):
        pool = set(weights)
        total = 0.0
        for w in sorted(pool):
            total += w
        return comm.allreduce(total)
    """
    assert codes(flagged) == ["SPMD603"]
    assert run(clean) == []


def test_603_flagged_sum_over_set():
    src = """
    def main(comm, weights):
        return comm.allreduce(sum(set(weights)))
    """
    assert codes(src) == ["SPMD603"]


# --------------------------------------------------------------- SPMD701-703


def test_701_flagged_and_clean_pair():
    flagged = """
    CACHE = {}

    def main(comm, k, v):
        CACHE[k] = v
        comm.barrier()
    """
    clean = """
    CACHE = {}

    def main(comm, k, v):
        local = dict(CACHE)
        local[k] = v
        comm.barrier()
        return local
    """
    assert codes(flagged) == ["SPMD701"]
    assert run(clean) == []


def test_701_flagged_global_rebind_and_mutation():
    src = """
    TOTALS = []

    def main(comm, x):
        global BEST
        BEST = x
        TOTALS.append(x)
        comm.barrier()
    """
    assert codes(src) == ["SPMD701", "SPMD701"]


def test_701_clean_local_shadow():
    src = """
    TOTALS = []

    def main(comm, x):
        TOTALS = []
        TOTALS.append(x)
        comm.barrier()
        return TOTALS
    """
    assert run(src) == []


def test_702_flagged_and_clean_pair():
    flagged = """
    def main(comm):
        return comm.bcast(lambda u: u + 1, root=0)
    """
    clean = """
    def main(comm):
        return comm.bcast([1, 2, 3], root=0)
    """
    assert codes(flagged) == ["SPMD702"]
    assert run(clean) == []


def test_702_flagged_generator_and_comm_payloads():
    src = """
    def main(comm):
        comm.bcast((x * x for x in range(4)), root=1)
        comm.alltoall(comm)
    """
    assert codes(src) == ["SPMD702", "SPMD702"]


def test_703_flagged_and_clean_pair():
    flagged = """
    def launch(spmd, data):
        def rank_main(comm):
            return data

        return spmd(4, rank_main)
    """
    clean = """
    def rank_main(comm, data):
        return data

    def launch(spmd, data):
        return spmd(4, rank_main, data)
    """
    assert codes(flagged) == ["SPMD703"]
    assert run(clean) == []
    # every engine starts through matching/job.py::launch
    assert codes(flagged.replace("spmd(4, rank_main)", "launch(rank_main, (data,), 2, 2)")
                 ) == ["SPMD703"]


# ----------------------------------------------------------- SPMD301 epochs


def test_301_fence_inside_loop_keeps_epoch_open():
    # CFG ordering, not lineno ordering: the fence at the loop tail
    # re-opens the epoch for the access at the loop head's next iteration
    src = """
    def main(comm, n):
        win = Window(comm, local)
        win.fence()
        for i in range(n):
            win.put(i, 0, 1)
            win.fence()
        win.free()
    """
    assert run(src) == []
