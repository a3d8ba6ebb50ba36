"""Invariant suite behind `nrqfl validate`.

Each check returns a CheckResult; the CLI prints one pass/fail line per check
and exits non-zero if any fails. The suite covers channel CPTP properties,
the Bloch engine the simulator runs against the Kraus chain (its oracle), the
codec round trip, the shot sampling and the estimator variance of
`qagg.aggregate` (the code a round runs), the three aggregation theorems,
mitigation efficacy, and selection fairness, at sizes that keep the whole run
to a few seconds.
The acceptance suite calls the same checks at its own seeds and sizes, which
is why the randomized checks take those as parameters; the trace-distance
oracle, the mitigation pipeline and the uniformity statistic each exist once,
here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import qagg, qselect
from .encode import ANGLE_BOUNDS, HALF_PI
from .qcore import (
    COMPLETENESS_TOL,
    PSD_TOL,
    TRACE_TOL,
    DensityMatrix,
    KrausChannel,
    NoiseModel,
    Observable,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Z_OBSERVABLE,
    amplitude_damping_channel,
    apply_channel,
    apply_unitary,
    circuit_bloch,
    completeness_residual,
    dephasing_channel,
    depolarizing_channel,
    expectation,
    make_pure_state,
    random_density_matrix,
    ry,
)

# The 10 ways to select 3 of 5 clients, and the 99th percentile of chi-square
# with 9 degrees of freedom (10 subsets), so that the package never imports scipy.
SUBSETS = {c: i for i, c in enumerate(itertools.combinations(range(5), 3))}
CHI2_DF9_P99 = 21.665994333461924
DEPHASING_GRID = (0.0, 0.01, 0.05, 0.1, 0.3, 0.5)  # the dephasing strengths of the analytic Theorem-1 case
MITIGATED_ANGLES = (0.45, 0.6, 0.75, 0.9, 1.05)  # the client set of the sampled mitigation runs


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _channel_grid():
    ps = np.arange(0.0, 1.0001, 0.01)
    for p in ps:
        yield depolarizing_channel(float(p))
        yield dephasing_channel(float(p))
        yield amplitude_damping_channel(float(p))


def check_cptp_completeness() -> CheckResult:
    worst = max(completeness_residual(ch.operators) for ch in _channel_grid())
    return CheckResult("cptp_completeness", worst < COMPLETENESS_TOL, f"worst Frobenius residual {worst:.2e}")


def _channel_outputs(seed: int, states: int, strengths):
    """Each of `states` random states (pure and mixed alternately) through depolarizing,
    dephasing and amplitude damping at the three `strengths`."""
    rng = np.random.default_rng(seed)
    p_depol, p_deph, gamma = strengths
    channels = [depolarizing_channel(p_depol), dephasing_channel(p_deph), amplitude_damping_channel(gamma)]
    for i in range(states):
        rho = random_density_matrix(rng, pure=bool(i % 2))
        for ch in channels:
            yield apply_channel(rho, ch)


def check_trace_preservation(seed: int = 11, states: int = 100) -> CheckResult:
    worst = max(abs(float(np.trace(out.matrix).real) - 1.0)
                for out in _channel_outputs(seed, states, (0.05, 0.1, 0.03)))
    return CheckResult("trace_preservation", worst < TRACE_TOL, f"worst |tr-1| {worst:.2e}")


def check_psd_preservation(seed: int = 12, states: int = 200, strengths=(0.3, 0.3, 0.3)) -> CheckResult:
    outputs = _channel_outputs(seed, states, strengths)
    worst = min(0.0, *(float(np.linalg.eigvalsh(out.matrix).min()) for out in outputs))
    return CheckResult("psd_preservation", worst >= -PSD_TOL, f"min eigenvalue {worst:.2e}")


def check_depolarizing_contraction() -> CheckResult:
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(30):
        p = float(rng.uniform(0, 0.5))
        rho = random_density_matrix(rng, pure=True)
        z0 = expectation(rho, Z_OBSERVABLE)
        ch = depolarizing_channel(p)
        state = rho
        for k in range(1, 5):
            state = apply_channel(state, ch)
            expected = (1 - 4 * p / 3) ** k * z0
            worst = max(worst, abs(expectation(state, Z_OBSERVABLE) - expected))
    return CheckResult("depolarizing_contraction", worst < 1e-10, f"worst deviation {worst:.2e}")


def check_dephasing_fixed_points() -> CheckResult:
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(30):
        d = rng.uniform(0, 1)
        rho = make_pure_state([1.0, 0.0]).matrix * d + make_pure_state([0.0, 1.0]).matrix * (1 - d)
        state = DensityMatrix(rho)
        out = apply_channel(state, dephasing_channel(float(rng.uniform(0, 1))))
        worst = max(worst, float(np.max(np.abs(out.matrix - state.matrix))))
    return CheckResult("dephasing_fixed_points", worst < 1e-12, f"worst drift {worst:.2e}")


def _kraus_chain(state: DensityMatrix, noise: NoiseModel) -> DensityMatrix:
    """The dense oracle of one gate-noise pass: `noise`'s Kraus channels in order."""
    for ch in noise.gate_channels():
        state = apply_channel(state, ch)
    return state


def _encoded_state(angle: float) -> DensityMatrix:
    """The oracle's own state prep of `angle`: Ry(2a)|0>, i.e. cos(a)|0> + sin(a)|1>."""
    return apply_unitary(make_pure_state([1.0, 0.0]), ry(2.0 * angle))


def trace_distance_oracle(angle: float, noise: NoiseModel) -> float:
    """D(rho, E(rho)) of the encoded state of `angle` and the Kraus chain E of one
    gate-noise pass, as half the sum of the difference's singular values."""
    rho = _encoded_state(angle)
    diff = rho.matrix - _kraus_chain(rho, noise).matrix
    return 0.5 * float(np.sum(np.linalg.svd(diff, compute_uv=False)))


def check_bloch_engine_matches_kraus() -> CheckResult:
    # Both maps are affine on the Bloch vector, so agreement at Ry(theta)|0> for
    # theta = 0, pi/2, pi is agreement on the whole xz-plane; a zero y component
    # shows that plane is invariant. The Kraus sets are completeness-checked, so
    # matching them makes the engine's map CPTP too.
    grid = np.linspace(0.0, 1.0, 21)
    models = [NoiseModel(**{name: float(p)}) for name in ("p_depol", "p_deph", "gamma") for p in grid]
    models += [NoiseModel(*ps) for ps in itertools.product((0.0, 0.3, 1.0), repeat=3)]
    zero = make_pure_state([1.0, 0.0])
    worst = 0.0
    for noise in models:
        for theta in (0.0, HALF_PI, math.pi):
            m = _kraus_chain(apply_unitary(zero, ry(theta)), noise).matrix
            x, y, z = (float(np.trace(pauli @ m).real) for pauli in (PAULI_X, PAULI_Y, PAULI_Z))
            ex, ez = circuit_bloch([theta], noise)
            worst = max(worst, abs(x - float(ex)), abs(y), abs(z - float(ez)))
    return CheckResult("bloch_engine_matches_kraus", worst < 1e-12,
                       f"{len(models)} noise models x 3 angles, worst |Kraus - engine| {worst:.2e}")


def check_sampling_consistency() -> CheckResult:
    """One client's 200 drawn angles per shot count S, sampled and decoded by one unmitigated `qagg.aggregate`
    call; an estimate misses when it is more than 4 sigma = 4 sqrt(`qagg.variance_bound`(S)) from its angle."""
    rng = np.random.default_rng(15)
    failures, total = 0, 0
    for shots in (1000, 10000, 100000):
        angles = rng.uniform(0.1, HALF_PI - 0.1, size=200)
        cfg = qagg.AggregationConfig(shots=shots)
        estimates = qagg.aggregate(angles[None, :], ANGLE_BOUNDS, cfg, NoiseModel(), seed_key=(15, shots)).vector
        failures += int(np.sum(np.abs(estimates - angles) > 4 * math.sqrt(qagg.variance_bound(shots))))
        total += len(angles)
    rate = failures / total
    return CheckResult("sampling_consistency", rate <= 0.01, f"4-sigma miss rate {rate:.3f}")


def check_encode_roundtrip() -> CheckResult:
    """The round's codec on one noiseless client whose parameters are a grid of angles: normalize, circuit,
    exact <Z>, `encode.z_to_angle`, denormalize."""
    grid = np.linspace(0.0, HALF_PI, 1000)
    cfg = qagg.AggregationConfig(exact_expectation=True)
    worst = float(np.max(np.abs(qagg.aggregate(grid[None, :], ANGLE_BOUNDS, cfg, NoiseModel()).vector - grid)))
    return CheckResult("encode_roundtrip", worst < 1e-12, f"worst |decode(encode(a)) - a| {worst:.2e}")


def _aggregate_angles(angles, mitigation: str, noise: NoiseModel) -> float:
    """`qagg.aggregate`'s exact-expectation estimate of one parameter whose client values are `angles`."""
    cfg = qagg.AggregationConfig(mitigation=mitigation, exact_expectation=True)
    return float(qagg.aggregate(np.asarray(angles)[:, None], ANGLE_BOUNDS, cfg, noise).vector[0])


def check_theorem1_linearity(seed: int = 16, sets: int = 300) -> CheckResult:
    rng = np.random.default_rng(seed)
    noiseless = NoiseModel()
    worst = 0.0
    for _ in range(sets):
        n = int(rng.integers(1, 10))
        angles = rng.uniform(0.0, HALF_PI, size=n)
        worst = max(worst, abs(_aggregate_angles(angles, "none", noiseless) - float(np.mean(angles))))
    return CheckResult("theorem1_linearity", worst < 1e-9, f"worst |estimate - mean| {worst:.2e}")


def check_theorem1_noise_bound(seed: int = 17, draws: int = 50) -> CheckResult:
    """`qagg.noise_deviation` against p for dephasing p on |+> (angle pi/4), where D(rho, E(rho)) = p,
    at each p of DEPHASING_GRID, and against `trace_distance_oracle` at `draws` random (angle, noise) pairs."""
    analytic = max(abs(qagg.noise_deviation(math.pi / 4, NoiseModel(p_deph=p)) - p) for p in DEPHASING_GRID)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        angle = float(rng.uniform(0.0, HALF_PI))
        noise = NoiseModel(*rng.uniform(0.0, 0.5, size=3))
        worst = max(worst, abs(qagg.noise_deviation(angle, noise) - trace_distance_oracle(angle, noise)))
    return CheckResult("theorem1_noise_bound", analytic < 1e-12 and worst < 1e-9,
                       f"dephasing analytic {analytic:.2e}, worst deviation from oracle {worst:.2e}")


def check_theorem2_bound_soundness(seed: int = 18, configs: int = 300, trials: int = 200) -> CheckResult:
    """`qagg.variance_bound`(S) against `qagg.empirical_variance` of an unmitigated aggregate of 1-9 drawn angles;
    drawn config i samples on seed key (seed, i)."""
    rng = np.random.default_rng(seed)
    noise = NoiseModel(p_depol=0.05, gamma=0.03)
    slack = 1 + 3 * math.sqrt(2 / (trials - 1))  # 3 sigma of a sample variance over `trials` normal draws
    violations, worst = 0, 0.0
    for i in range(configs):
        n = int(rng.integers(1, 10))
        shots = int(rng.integers(256, 65537))
        angles = rng.uniform(0.05, HALF_PI - 0.05, size=n)
        cfg = qagg.AggregationConfig(shots=shots)
        ratio = qagg.empirical_variance(angles, cfg, noise, trials, seed_key=(seed, i)) / qagg.variance_bound(shots)
        violations += ratio > slack
        worst = max(worst, ratio)
    rate = violations / configs
    return CheckResult(
        "theorem2_bound_soundness", rate <= 0.05,
        f"violation rate {rate:.3f}, worst variance/bound {worst:.3f}",
    )


def commutation_check(channel: KrausChannel, m: Observable, state: DensityMatrix):
    """Theorem-3 style test: Tr(M rho) vs Tr(M E(rho))."""
    lhs = expectation(state, m)
    rhs = expectation(apply_channel(state, channel), m)
    return lhs, rhs, abs(lhs - rhs) < 1e-10


def check_theorem3_commutation(seed: int = 20) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst_hold, worst_viol = 0.0, 0.0
    for _ in range(100):
        rho = random_density_matrix(rng, pure=bool(rng.integers(2)))
        p = float(rng.uniform(0.01, 0.99))
        lhs, rhs, _ = commutation_check(dephasing_channel(p), Z_OBSERVABLE, rho)
        worst_hold = max(worst_hold, abs(lhs - rhs))
        lhs, rhs, _ = commutation_check(depolarizing_channel(p), Z_OBSERVABLE, rho)
        worst_viol = max(worst_viol, abs(abs(lhs - rhs) - (4 * p / 3) * abs(lhs)))
    ok = worst_hold < 1e-10 and worst_viol < 1e-9
    return CheckResult("theorem3_commutation", ok, f"dephasing residual {worst_hold:.2e}, depolarizing law residual {worst_viol:.2e}")


def check_mitigation_efficacy(seed: int = 21, sets: int = 50, runs: int = 20, shots: int = 10**5) -> CheckResult:
    """Channel inversion through `qagg.aggregate` under depolarizing noise. Exact: on `sets` drawn client
    sets the mitigated error stays below 1e-6 and the raw estimate is always the worse one. Sampled: on
    `runs` independent `shots`-shot streams of MITIGATED_ANGLES, 95% land within 0.02 rad of the mean."""
    rng = np.random.default_rng(seed)
    noise = NoiseModel(p_depol=0.05)
    worst_mit, min_raw, raw_always_worse = 0.0, math.inf, True
    for _ in range(sets):
        n = int(rng.integers(2, 10))
        mean = rng.uniform(0.2, 1.2)
        angles = np.clip(mean + rng.uniform(-0.1, 0.1, size=n), 0.0, HALF_PI)
        true_mean = float(np.mean(angles))
        raw = abs(_aggregate_angles(angles, "none", noise) - true_mean)
        mitigated = abs(_aggregate_angles(angles, "channel_inversion", noise) - true_mean)
        worst_mit, min_raw = max(worst_mit, mitigated), min(min_raw, raw)
        raw_always_worse = raw_always_worse and raw > mitigated
    # every parameter of one aggregate call draws its own shots from the call's stream, so each column is one run
    cfg = qagg.AggregationConfig(shots=shots, mitigation="channel_inversion")
    columns = np.tile(np.array(MITIGATED_ANGLES)[:, None], (1, runs))
    estimates = qagg.aggregate(columns, ANGLE_BOUNDS, cfg, noise, seed_key=(seed,)).vector
    hits = int(np.sum(np.abs(estimates - np.mean(MITIGATED_ANGLES)) < 0.02))
    ok = worst_mit < 1e-6 and raw_always_worse and hits >= 0.95 * runs
    return CheckResult("mitigation_efficacy", ok, f"worst mitigated error {worst_mit:.2e}, min raw bias "
                       f"{min_raw:.2e}, {hits}/{runs} sampled runs within 0.02 rad")


def subset_chi_square(selections: list) -> float:
    """Pearson chi-square of 3-of-5 `selections` (SelectionVectors) against uniform over the 10 SUBSETS."""
    counts = np.bincount([SUBSETS[sv.selected] for sv in selections], minlength=len(SUBSETS))
    expected = len(selections) / len(SUBSETS)
    return float(np.sum((counts - expected) ** 2 / expected))


def check_selection_fairness(seeds: int = 20, rounds: int = 2000, stream: int = 99,
                             quorum: float = 0.9) -> CheckResult:
    """At least a `quorum` share of `seeds` EntropySource streams [seed, stream] select 3 of 5 clients
    `rounds` times with a subset chi-square below CHI2_DF9_P99."""
    noise = NoiseModel(p_depol=0.05, gamma=0.03)
    sources = (qselect.EntropySource(noise, seed=[seed, stream]) for seed in range(seeds))
    ok_count = sum(subset_chi_square([qselect.select_clients(5, 3, source, t) for t in range(rounds)]) < CHI2_DF9_P99
                   for source in sources)
    return CheckResult("selection_fairness", ok_count >= quorum * seeds,
                       f"{ok_count}/{seeds} seeds below the 99th percentile of the 10-subset chi-square")


def check_extractor_bias() -> CheckResult:
    rng = np.random.default_rng(7)
    raw = (rng.random(1_000_000) < 0.55).astype(np.uint8)
    out = qselect.von_neumann_extract(raw)
    bias = abs(float(out.mean()) - 0.5)
    return CheckResult("extractor_bias", bias < 1e-3, f"output bias {bias:.2e} from {len(out)} bits")


def check_injected_broken_channel_cptp() -> CheckResult:
    # negative control: run the completeness check on a non-complete Kraus set;
    # it must fail (and the constructor must refuse it), driving exit code 1
    broken = (0.5 * PAULI_X,)
    residual = completeness_residual(broken)
    constructor_rejects = False
    try:
        KrausChannel(broken, label="broken")
    except ValueError:
        constructor_rejects = True
    detail = f"injected Kraus set: completeness residual {residual:.2e}, constructor rejects: {constructor_rejects}"
    return CheckResult("injected_broken_channel_cptp", residual < COMPLETENESS_TOL and not constructor_rejects, detail)


ALL_CHECKS = (
    check_cptp_completeness,
    check_trace_preservation,
    check_psd_preservation,
    check_depolarizing_contraction,
    check_dephasing_fixed_points,
    check_bloch_engine_matches_kraus,
    check_sampling_consistency,
    check_encode_roundtrip,
    check_theorem1_linearity,
    check_theorem1_noise_bound,
    check_theorem2_bound_soundness,
    check_theorem3_commutation,
    check_mitigation_efficacy,
    check_selection_fairness,
    check_extractor_bias,
)


def _run_check(check) -> CheckResult:
    """`check`'s result, or a failed one naming the exception it raised, so that one broken check hides no other."""
    try:
        return check()
    except Exception as exc:  # noqa: BLE001 - a check that raises has failed
        return CheckResult(check.__name__.removeprefix("check_"), False, f"raised {type(exc).__name__}: {exc}")


def run_suite(inject_broken_channel: bool = False) -> list:
    """Every check's result in ALL_CHECKS order; a check named check_<name> reports as <name>."""
    checks = ALL_CHECKS + ((check_injected_broken_channel_cptp,) if inject_broken_channel else ())
    return [_run_check(check) for check in checks]
