"""Benchmark workloads: inputs made from a seed, one op each, and its check.

Every workload follows the operating point of an acceptance batch (see
NOTES.md).  ``setup`` imports ``hamtomo`` and builds every input before
timing starts; ``run`` is the timed op, a single call into the public API;
``check`` compares the op's result with the simulated truth, outside the
timed region.  All ``hamtomo`` calls go through module attributes, so the
traced run's wrappers see them.
"""

from dataclasses import dataclass, field
import hashlib
import json
import math


@dataclass
class Outcome:
    """What one op produced, judged against the truth it was simulated from."""

    failure: str | None   # why the op failed, None when it did not
    h_errors: list = field(default_factory=list)   # percent
    eps_max_opt: list = field(default_factory=list)  # percent, per fixed-basis cell
    cells: int = 0
    arrangement_ok: int = 0
    record: bytes = b""                            # digest input


def _cell_record(cell) -> bytes:
    # json writes floats with repr, so equal bytes mean equal bits
    return json.dumps(cell.to_dict(), sort_keys=True).encode()


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for outcome in outcomes:
        h.update(outcome.record)
    return h.hexdigest()[:16]


class CellWorkload:
    """One ``harness.run_cell`` per op over freshly generated systems.

    ``eps_limit`` and ``h_limit`` (percent) bound the result of one op; an
    op beyond them fails as ``wrong-result``.  ``h_limit=None`` leaves the
    H error unchecked.  ``h_median_limit`` (percent) bounds the median H
    error of a run, as an acceptance criterion bounds a batch; None leaves
    it unchecked.  ``op_s_reference`` is
    the median op time on a 2-core AMD EPYC (numpy backend, one BLAS
    thread); it sets how many ops a run makes.
    """

    name = ""
    n_samples = 0
    shots = 0
    system_kwargs: dict = {}
    n_inputs = 40
    min_ops = 8
    eps_limit = 0.1
    h_limit: float | None = 25.0
    h_median_limit: float | None = 2.5   # criterion 5

    def setup(self, seed: int) -> list:
        from hamtomo import harness, model

        self.harness = harness
        self.config = harness.RunConfig(seed=seed, **self.system_kwargs)
        inputs = []
        for idx in range(self.n_inputs):
            h = harness.generate_system(harness.derive_seed(seed, "system", idx),
                                        **self.system_kwargs)
            inputs.append((idx, h, model.signal_model_of(h)))
        return inputs

    def run(self, inp):
        idx, h, truth = inp
        return self.harness.run_cell(h, truth, idx, self.n_samples, self.shots, self.config)

    def check(self, inp, cell) -> Outcome:
        if cell.failure is not None:
            return Outcome(failure=cell.failure, record=_cell_record(cell))
        right = cell.eps_max_opt <= self.eps_limit
        if self.h_limit is not None:
            right = right and cell.h_error_pct <= self.h_limit
        return Outcome(failure=None if right else "wrong-result", h_errors=[cell.h_error_pct],
                       eps_max_opt=[cell.eps_max_opt], cells=1,
                       arrangement_ok=int(cell.arrangement_ok), record=_cell_record(cell))


class Nominal(CellWorkload):
    """Criterion-3 batch cell: N=4097, 250 shots, well-separated lines."""

    name = "nominal"
    n_samples = 4097
    shots = 250
    system_kwargs = {"min_separation": 0.05}
    min_ops = 8
    op_s_reference = 2.0


class Degenerate(CellWorkload):
    """Criterion-6 operating point on generated near-degenerate systems.

    Known defect, kept as is: ``generate_system(near_degenerate=True)``
    always builds two near-coincident pairs, not one, because
    ``gaps[2] = gaps[0] + split`` shifts both w(gap3) against w(gap1) and
    w(gap2+gap3) against w(gap1+gap2) by ``split``.  Level identification
    from sum rules is then ambiguous on many systems, so the H error is
    reported but not checked; the check is on the six resolved frequencies,
    within 2 % (the worst of 40 systems was 0.3 %).
    """

    name = "degenerate"
    n_samples = 1025
    shots = 8000
    system_kwargs = {"near_degenerate": True}
    n_inputs = 24
    min_ops = 5
    op_s_reference = 3.6
    eps_limit = 2.0
    h_limit = None
    h_median_limit = None


class Phase:
    """One ``control.full_tomography`` per op: one target, one two-step length.

    The priors are the exact gauge-fixed reconstructions of the noiseless
    signal models, so the op and its error isolate the control stage.  The
    op cost depends on the reference as much as on the target, so the
    targets take turns over several references, each a generated system
    whose prior balances the populations, as an experimenter would choose it.
    """

    name = "phase"
    lengths = (51, 201)
    shots = 5000
    n_references = 32
    n_targets = 64
    min_ops = 64
    op_s_reference = 0.17
    h_limit = 10.0
    h_median_limit = 2.0   # criterion 8

    def setup(self, seed: int) -> list:
        from hamtomo import control, errors, estimator, experiment, harness, model, reconstruction

        self.control, self.experiment, self.harness = control, experiment, harness

        def system(idx):
            h = harness.generate_system(harness.derive_seed(seed, "system", idx),
                                        min_separation=0.05)
            fit = estimator.model_fit_from_signal(model.signal_model_of(h))
            return h, reconstruction.reconstruct(fit)[0]

        references = []
        idx = 0
        while len(references) < self.n_references:
            if idx >= 100 * self.n_references:
                raise RuntimeError("too few generated references balance the populations")
            h0, h0_est = system(idx)
            idx += 1
            try:
                control.select_balanced_time(h0_est, 10.0)
            except errors.BalanceError:
                continue
            references.append((h0, h0_est))
        inputs = []
        for target in range(self.n_targets):
            h, h_est = system(idx + target)
            for n_phase in self.lengths:
                plan = experiment.SamplingPlan(
                    dt=0.1, n_samples=n_phase, shots=self.shots,
                    seed=harness.derive_seed(seed, "phase", target, n_phase))
                inputs.append((references[target % self.n_references], h, h_est, plan))
        return inputs

    def run(self, inp):
        (h0, h0_est), h, h_est, plan = inp

        def two_step(t_star, plan_):
            return self.experiment.run_two_step(h0, t_star, h, plan_)

        return self.control.full_tomography(h0_est, h_est, two_step, plan=plan,
                                            t_max=10.0, restarts=8, seed=plan.seed)

    def check(self, inp, outcome) -> Outcome:
        (h0, h0_est), h, _, _ = inp
        err = 100.0 * self.harness.reference_frame_error(
            outcome.hamiltonian, h, h0, h0_est, prep_state=outcome.initial_state)
        record = outcome.hamiltonian.tobytes() + outcome.phase_estimate.deltas.tobytes()
        if math.isnan(err):
            return Outcome(failure="nan-error", record=record)
        return Outcome(failure=None if err <= self.h_limit else "wrong-result",
                       h_errors=[err], record=record)


class LongPhase:
    """One ``harness.run_pipeline`` per op: a reference and one target at the
    criterion-8 prior point (N=16385, 1000 shots), then the phase stage.

    Not in BENCHMARK.json: one op takes about 50 s, more than a run may
    spend (see NOTES.md).  Run it by hand with ``--workload long-phase``.
    """

    name = "long-phase"
    n_inputs = 4
    min_ops = 1
    op_s_reference = 55.0
    eps_limit = 0.1
    h_limit = 10.0
    h_median_limit = 2.0   # criterion 8

    def setup(self, seed: int) -> list:
        from hamtomo import harness

        self.harness = harness
        return [harness.RunConfig(
            n_systems=2, sample_counts=(16385,), shot_counts=(1000,),
            min_separation=0.05, seed=harness.derive_seed(seed, "long-phase", i),
            run_phase_stage=True, phase_lengths=(51, 201), phase_shots=5000,
            output_dir=".") for i in range(self.n_inputs)]

    def run(self, config):
        return self.harness.run_pipeline(config)

    def check(self, config, report) -> Outcome:
        record = json.dumps(report.to_dict(), sort_keys=True).encode()
        phase_errors = [p.h_error_pct for p in report.phase_results]
        if any(c.failure is not None for c in report.cells) or any(map(math.isnan, phase_errors)):
            return Outcome(failure="failed-cell-or-phase", record=record)
        eps = [c.eps_max_opt for c in report.cells]
        right = max(eps) <= self.eps_limit and max(phase_errors) <= self.h_limit
        return Outcome(failure=None if right else "wrong-result", h_errors=phase_errors,
                       eps_max_opt=eps, cells=len(report.cells),
                       arrangement_ok=sum(c.arrangement_ok for c in report.cells),
                       record=record)


WORKLOADS = {w.name: w for w in (Nominal, Degenerate, Phase, LongPhase)}
