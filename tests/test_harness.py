"""Harness tests: seed derivation, sweep determinism, mode coherence."""

import pytest

from jigsaw import harness, kernels
from jigsaw.certificates import find_rotation_equivalent_pair, find_symmetric_piece
from jigsaw.core import generate_puzzle, pieces_of
from jigsaw.harness import (
    CSV_HEADER,
    SweepSpec,
    derive_trial_seed,
    rows_to_csv,
    run_sweep,
    splitmix64,
)
from jigsaw.solver import decide_unique


class TestSeeds:
    def test_splitmix_known_value(self):
        # first output of the splitmix64 stream seeded with 0
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(1) != splitmix64(0)

    def test_64_bit_range(self):
        for x in (0, 1, 2**63, 2**64 - 1, 12345678901234567890):
            y = splitmix64(x)
            assert 0 <= y < 2**64

    def test_derivation_deterministic(self):
        assert derive_trial_seed(99, 4, 8, 0) == derive_trial_seed(99, 4, 8, 0)

    def test_all_coordinates_matter(self):
        base = derive_trial_seed(99, 4, 8, 0)
        assert derive_trial_seed(99, 4, 8, 1) != base
        assert derive_trial_seed(99, 4, 9, 0) != base
        assert derive_trial_seed(99, 5, 8, 0) != base
        assert derive_trial_seed(98, 4, 8, 0) != base

    def test_no_collisions_across_grid(self):
        seen = {
            derive_trial_seed(7, n, q, t)
            for n in range(1, 9)
            for q in range(1, 9)
            for t in range(50)
        }
        assert len(seen) == 8 * 8 * 50


class TestSweep:
    def spec(self, **kw):
        base = dict(
            n_values=(2, 3), q_values=(1, 2), trials=15, mode="exact", master_seed=5
        )
        base.update(kw)
        return SweepSpec(**base)

    def test_counts_conserved_and_sorted(self):
        rows = run_sweep(self.spec())
        assert [(r.n, r.q) for r in rows] == [(2, 1), (2, 2), (3, 1), (3, 2)]
        for r in rows:
            assert r.unique + r.nonunique + r.undetermined == r.trials

    def test_rerun_identical(self):
        rows1 = run_sweep(self.spec())
        rows2 = run_sweep(self.spec())
        assert rows_to_csv(rows1) == rows_to_csv(rows2)

    def test_parallel_identical(self):
        serial = rows_to_csv(run_sweep(self.spec()))
        parallel = rows_to_csv(run_sweep(self.spec(), workers=4))
        assert serial == parallel

    def test_python_backend_runs_in_the_calling_thread(self, monkeypatch):
        # the Python kernel holds the GIL, so a pool would only add contention
        def no_pool(*args, **kwargs):
            raise RuntimeError("thread pool started")

        serial = run_sweep(self.spec())
        monkeypatch.setattr(kernels, "ACTIVE_BACKEND", "python")
        monkeypatch.setattr(harness, "ThreadPoolExecutor", no_pool)
        assert run_sweep(self.spec(), workers=4) == serial

    def test_numba_backend_uses_the_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise RuntimeError("thread pool started")

        spec = self.spec(trials=3)
        serial = run_sweep(spec)
        monkeypatch.setattr(kernels, "ACTIVE_BACKEND", "c")  # the compiled backend
        assert run_sweep(spec, workers=4) == serial
        monkeypatch.setattr(harness, "ThreadPoolExecutor", no_pool)
        assert run_sweep(spec) == serial
        with pytest.raises(RuntimeError, match="thread pool"):
            run_sweep(spec, workers=4)

    def test_duplicate_values_deduped(self):
        rows = run_sweep(self.spec(n_values=(2, 2), q_values=(1,)))
        assert [(r.n, r.q) for r in rows] == [(2, 1)]

    def test_header_and_timings_off(self):
        csv = rows_to_csv(run_sweep(self.spec()))
        lines = csv.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert CSV_HEADER == (
            "n,q,mode,trials,unique,nonunique,undetermined,master_seed,mean_ms"
        )
        for line in lines[1:]:
            assert line.endswith(",0.000")

    def test_timings_on(self):
        rows = run_sweep(self.spec(record_timings=True, trials=3))
        assert all(r.mean_ms >= 0.0 for r in rows)

    def test_n2_q1_all_nonunique(self):
        rows = run_sweep(self.spec(n_values=(2,), q_values=(1,), trials=25))
        assert rows[0].nonunique == 25

    def test_n1_unique_in_all_modes(self):
        for mode in ("exact", "certificate", "auto"):
            rows = run_sweep(
                self.spec(n_values=(1,), q_values=(1, 3), trials=8, mode=mode)
            )
            for r in rows:
                assert r.unique == r.trials

    def test_certificate_never_unique_for_n_ge_2(self):
        rows = run_sweep(
            self.spec(n_values=(2, 3), q_values=(2, 6), trials=20, mode="certificate")
        )
        for r in rows:
            assert r.unique == 0
            assert r.nonunique + r.undetermined == r.trials

    def test_certificate_coherent_with_exact(self):
        # every certificate hit must be confirmed nonunique by exact search
        n, q, master = 3, 2, 41
        for t in range(20):
            seed = derive_trial_seed(master, n, q, t)
            gc = generate_puzzle(n, q, seed)
            bag = pieces_of(gc)
            cert = find_rotation_equivalent_pair(bag) or find_symmetric_piece(bag)
            if cert is not None:
                assert decide_unique(gc).kind == "nonunique"

    def test_auto_agrees_with_exact_on_verdicts(self):
        exact = run_sweep(self.spec(mode="exact", trials=12))
        auto = run_sweep(self.spec(mode="auto", trials=12))
        for re_, ra in zip(exact, auto):
            # auto may settle via certificate but must reach the same split
            assert (re_.n, re_.q) == (ra.n, ra.q)
            assert re_.unique == ra.unique
            assert re_.nonunique == ra.nonunique

    def test_mean_ms_format(self):
        csv = rows_to_csv(run_sweep(self.spec(trials=2)))
        for line in csv.strip().split("\n")[1:]:
            assert line.split(",")[-1] == "0.000"


class TestSpecValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            SweepSpec(n_values=(2,), q_values=(1,), trials=1, mode="guess")

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            SweepSpec(n_values=(), q_values=(1,), trials=1)
        with pytest.raises(ValueError):
            SweepSpec(n_values=(2,), q_values=(1,), trials=0)
        with pytest.raises(ValueError):
            SweepSpec(n_values=(0,), q_values=(1,), trials=1)
        with pytest.raises(ValueError):
            SweepSpec(n_values=(2,), q_values=(0,), trials=1)

    def test_bad_workers(self):
        spec = SweepSpec(n_values=(2,), q_values=(1,), trials=1)
        with pytest.raises(ValueError, match="workers"):
            run_sweep(spec, workers=0)
