"""Experiment drivers: seeded, file-emitting runs behind the CLI.

Each driver takes an ExperimentConfig, derives independent per-task seeds
from the config seed, runs one simulation campaign, and writes plot-ready
CSV/JSON plus a manifest (config hash, seed, library versions) into the
output directory.  Everything is deterministic given (config, seed); the
analytic columns never touch the RNG at all.

Drivers
-------
run_g2              pair-delay correlation of the simulated trigger beam
run_delay_sweep     two-photon weight in the adapted mode vs herald delay
run_fixed_mode_sweep  photon weights in the first-trigger mode vs delay
run_fock_panels     reconstructed distributions in four analysis modes
end_to_end          clicks -> pairs -> adapted-mode quadratures -> tomography
reconstruct_samples tomography of an existing quadrature CSV

``run_g2`` and ``end_to_end`` get their clicks from one generator,
``_click_chunks``, which thins each chunk of one trigger field from
``clicks.thermal_field_chunks`` as it is made and yields its click times.
``end_to_end`` feeds each chunk to a ``clicks.CoincidenceSelector``, and
``run_g2`` to ``clicks.g2_histogram``, on the calling thread as it
arrives, so neither holds the whole run's clicks: only pairs, or delay
counts and the clicks within g2_max_delay_ns of the last.

The sweeps, panels and end-to-end bins build one ``_DelayScene`` per
delay: the lossy Fock state and, keyed "g1", "g2", "f1" and "f2" (no f2
at zero delay), each analysis mode and its lossy closed form.  A driver
picks a mode by name and reduces the state to it: ``_reduced_states``
does so at each delay of both sweeps and at each of ``end_to_end``'s bin
centers, and the panels reduce one scene per mode.  The sweeps and panels
fit through ``_fit_states``, at any list of config seeds: state k draws x
values from seed k of ``_sample_seeds`` through ``quadrature_values``,
out of draw order, and one ``ml_diagonal_batch`` call keeps only each
histogram.  ``end_to_end`` draws each delay bin's (x, theta) in draw
order from ``sample_quadratures``, for samples.csv, and fits them in one
batch.

Every driver checks what its config alone fixes before its first random
draw, and computes all it reports before it hands its files to
``_write_outputs``, the package's one file writer, so a run that fails
leaves no output directory behind.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import platform
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .analytic import PhotonDistribution, apply_loss, fidelity_optimal, fixed_mode_distribution, g2_closed_form
from .clicks import (
    CoincidenceSelector,
    _check_plateau_pairs,
    _check_rate,
    g2_bin_edges,
    g2_histogram,
    sample_clicks,
    thermal_field_chunks,
)
from .errors import DegenerateModes, InsufficientPairs, OutOfRange, ResolutionTooCoarse
from .fock import (
    ModeRegister,
    MultimodeState,
    apply_loss_channel,
    build_heralded_state,
    reduce_to_mode,
)
from .homodyne import quadrature_values, sample_quadratures
from .modes import (
    ModeFunction,
    TimeGrid,
    extend_orthonormal_basis,
    make_symmetric_antisymmetric,
    make_trigger_mode,
    overlap,
    overlap_closed_form,
)
from .tomo import MLConfig, MLResult, ml_diagonal, ml_diagonal_batch

# The trigger field is made and thinned in chunks of at most this many
# samples, split evenly, each continuing the last; it bounds memory, and
# the chunking fixes the seed stream.
FIELD_CHUNK_SAMPLES = 2**18
# Most grid samples, g2 bins, delay bins, field chunks or POVM bins (by
# default 5,001, 120, 33, 153, 611 and 256) a config may ask for.  Each
# count sizes an array or a list, so a mistyped value far beyond it would
# exhaust memory or raise a bare ValueError deep in a driver.
MAX_ARRAY_LENGTH = 10**6
# Most clicks a config may expect, g2_n_events or mean_rate_hz *
# end_to_end_duration_s (the defaults expect 1e6 and 4e6).  Neither driver
# holds its clicks: g2 keeps its delay counts, end-to-end its pairs, so the
# bound is one of run time.
MAX_CLICKS = 10**8
# Largest gap the mode grid may leave between the discrete trigger overlap
# and ``overlap_closed_form``: as |dF+/dI| <= 1, P2 then moves by at most
# eta**2 times this, 0.2 stderr at 1e5 samples and the default eta.
MAX_OVERLAP_GAP = 1e-3


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs for the experiment drivers, JSON-serializable.

    Times suffixed _ns are nanoseconds; rates are Hz.  ``delays_ns`` must
    be sorted ascending.  ``min_pairs_per_bin`` is the reconstruction
    threshold of the end-to-end pipeline: thinner delay bins are skipped
    with a warning.
    """

    gamma_hz: float = 53e6
    eta: float = 0.76
    grid_dt_ns: float = 0.1
    grid_window_ns: float = 500.0
    delays_ns: tuple[float, ...] = tuple(float(d) for d in range(0, 45, 2))
    acceptance_window_ns: float = 65.0
    samples_per_point: int = 100_000
    rng_seed: int = 5
    output_dir: str = "outputs"
    # trigger-beam simulation
    mean_rate_hz: float = 5e7
    field_dt_ns: float = 0.5
    g2_n_events: int = 1_000_000
    g2_bin_ns: float = 0.5
    g2_max_delay_ns: float = 60.0
    # coincidence selection / end-to-end pipeline
    dead_time_ns: float = 500.0
    end_to_end_duration_s: float = 0.08
    delta_t_bin_ns: float = 2.0
    min_pairs_per_bin: int = 1000
    # reconstruction
    tomo_cutoff: int = 5
    tomo_n_bins: int = 256

    def __post_init__(self) -> None:
        positive = (
            "gamma_hz", "grid_dt_ns", "grid_window_ns", "acceptance_window_ns",
            "samples_per_point", "mean_rate_hz", "field_dt_ns", "g2_n_events", "g2_bin_ns",
            "g2_max_delay_ns", "end_to_end_duration_s", "delta_t_bin_ns", "min_pairs_per_bin",
        )
        for name in positive:
            value = getattr(self, name)
            if not value > 0:
                raise OutOfRange(f"{name} must be positive, got {value}")
        # the ratios, not the rounded counts, so that an infinite one raises too
        field_chunk_s = self.field_dt_ns * 1e-9 * FIELD_CHUNK_SAMPLES
        for name, count, limit in (
            ("grid samples", self.grid_window_ns / self.grid_dt_ns, MAX_ARRAY_LENGTH),
            ("g2 bins", self.g2_max_delay_ns / self.g2_bin_ns, MAX_ARRAY_LENGTH),
            ("delay bins", self.acceptance_window_ns / self.delta_t_bin_ns, MAX_ARRAY_LENGTH),
            ("g2 field chunks", self.g2_n_events / self.mean_rate_hz / field_chunk_s, MAX_ARRAY_LENGTH),
            ("end-to-end field chunks", self.end_to_end_duration_s / field_chunk_s, MAX_ARRAY_LENGTH),
            ("POVM bins", self.tomo_n_bins, MAX_ARRAY_LENGTH),
            ("g2 clicks", self.g2_n_events, MAX_CLICKS),
            ("end-to-end clicks", self.mean_rate_hz * self.end_to_end_duration_s, MAX_CLICKS),
        ):
            if not count <= limit:
                raise OutOfRange(f"{name} {count:.3g} exceed the limit {limit:,}")
        self.ml_config()  # tomo_cutoff and tomo_n_bins meet MLConfig's rules
        if self.rng_seed < 0:
            raise OutOfRange(f"rng_seed must be non-negative, got {self.rng_seed}")
        if not (0.0 <= self.eta <= 1.0):
            raise OutOfRange(f"eta must lie in [0, 1], got {self.eta}")
        if not self.dead_time_ns >= 0.0:  # also catches NaN
            raise OutOfRange(f"dead_time_ns must be non-negative, got {self.dead_time_ns}")
        delays = tuple(float(d) for d in self.delays_ns)
        if not delays:
            raise OutOfRange("delays_ns must not be empty")
        if not all(0.0 <= d < math.inf for d in delays) or list(delays) != sorted(delays):
            raise OutOfRange("delays_ns must be finite, non-negative and sorted ascending")
        object.__setattr__(self, "delays_ns", delays)

    def grid(self) -> TimeGrid:
        return TimeGrid(
            t_start=0.0,
            dt=self.grid_dt_ns * 1e-9,
            n_samples=int(round(self.grid_window_ns / self.grid_dt_ns)) + 1,
        )

    def ml_config(self) -> MLConfig:
        return MLConfig(cutoff=self.tomo_cutoff, n_bins=self.tomo_n_bins)

    def to_json_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["delays_ns"] = list(out["delays_ns"])
        return out


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config.to_json_dict(), indent=2) + "\n")


def load_config(path: str | Path) -> ExperimentConfig:
    """Read a config JSON; unknown keys (typos) and values whose type does
    not fit the field are rejected."""
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise OutOfRange(f"config file {path} must hold a JSON object")
    annotations = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(raw) - set(annotations)
    if unknown:
        raise OutOfRange(f"unknown config keys: {sorted(unknown)}")
    hints = get_type_hints(ExperimentConfig)
    for name, value in raw.items():
        if not _fits(hints[name], value):
            raise OutOfRange(f"config key {name} must be {annotations[name]}, got {value!r}")
    return ExperimentConfig(**raw)


def _fits(hint: Any, value: Any) -> bool:
    """Whether a JSON value fits a field annotation.  Float fields take
    integers too; true/false fits no field, although bool subclasses int."""
    items = [value]
    if get_origin(hint) is tuple:  # delays_ns, a JSON list of numbers
        hint = get_args(hint)[0]
        items = value if isinstance(value, list) else [None]
    allowed = (int, float) if hint is float else hint
    return all(isinstance(v, allowed) and not isinstance(v, bool) for v in items)


def config_hash(config: ExperimentConfig) -> str:
    canon = json.dumps(config.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _derive_seeds(seed: int, count: int) -> list[int]:
    # independent child seeds; stable across platforms for a fixed root
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]


def _sample_seeds(seed: int, count: int) -> list[int]:
    # job k samples from seed 2k of 2 * count; the odd seeds fed each fit's
    # bootstrap, which is gone, and leaving them unused keeps every sample stream
    return _derive_seeds(seed, 2 * count)[::2]


def _out_dir(config: ExperimentConfig, out_dir: str | Path | None, command: str) -> Path:
    return Path(out_dir) if out_dir is not None else Path(config.output_dir) / command


def _write_outputs(config: ExperimentConfig, out_dir: str | Path | None, command: str, files: dict) -> None:
    """Create the output directory and write ``files`` into it in order, a
    dict as indented JSON and a (table, header) pair through ``write_csv``,
    then manifest.json, whose ``outputs`` lists them.  Each driver calls it
    once, after all its work, so a run that fails leaves no directory."""
    out = _out_dir(config, out_dir, command)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "config_hash": config_hash(config),
        "rng_seed": config.rng_seed,
        "outputs": list(files),
        "versions": {"heraldsim": __version__, "numpy": np.__version__, "python": platform.python_version()},
        "config": config.to_json_dict(),
    }
    for name, content in {**files, "manifest.json": manifest}.items():
        if isinstance(content, dict):
            (out / name).write_text(json.dumps(content, indent=2) + "\n")
        else:
            write_csv(out / name, *content)


_CSV_BLOCK_ROWS = 4096


def write_csv(path: str | Path, table: np.ndarray | list, header: str) -> None:
    """Write the rows of a 2-d float ``table`` as CSV under the line
    ``header``, each value as ``%.12g``.  The bytes are those of
    ``np.savetxt(path, table, fmt="%.12g", delimiter=",", header=header,
    comments="")``; one ``%`` formats each block of at most 4,096 rows,
    so the text held at once stays bounded."""
    table = np.asarray(table, dtype=float)
    row = ",".join(["%.12g"] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[start : start + _CSV_BLOCK_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _rho_json(rho: np.ndarray) -> dict:
    """A density matrix as JSON: its dimension and row-major real and imaginary parts."""
    return {"dimension": rho.shape[0], "real": rho.real.ravel().tolist(), "imag": rho.imag.ravel().tolist()}


# ---------------------------------------------------------------------------
# shared pipeline pieces


@dataclass(frozen=True)
class _DelayScene:
    """Lossy state, analysis modes by name and their closed forms at one delay."""

    state: MultimodeState
    modes: dict[str, ModeFunction]
    analytic: dict[str, PhotonDistribution]


def _build_scene(config: ExperimentConfig, delta_t: float) -> _DelayScene:
    """Analysis modes, lossy state and closed forms at one herald delay.

    ``modes`` and ``analytic`` share the keys g1, g2 (the trigger modes)
    and f1, f2 (the adapted symmetric and antisymmetric pair), in that
    order.  The closed forms (Nielsen & Molmer, PRA 75, 043801, 2007) are
    the fixed-mode distribution for g1 and g2, diag(F-, 0, F+) for f1 and
    diag(F+, 0, F-) for f2, each through binomial loss.  At zero delay the
    triggers coincide: the state is a two-photon Fock state in the single
    mode g1 = g2 = f1, and there is no f2.  A grid that puts the trigger
    overlap beyond MAX_OVERLAP_GAP of its closed form raises ResolutionTooCoarse.
    """
    grid = config.grid()
    center = 0.5 * (config.grid_window_ns * 1e-9)
    g1 = make_trigger_mode(center - 0.5 * delta_t, config.gamma_hz, grid)
    if delta_t == 0.0:
        ov = 1.0
        modes = {"g1": g1, "g2": g1, "f1": g1}
        basis = [g1]
    else:
        g2 = make_trigger_mode(center + 0.5 * delta_t, config.gamma_hz, grid)
        ov = overlap(g1, g2)
        gap = abs(ov - overlap_closed_form(delta_t, config.gamma_hz))
        if not gap <= MAX_OVERLAP_GAP:
            raise ResolutionTooCoarse(
                f"grid_dt_ns {config.grid_dt_ns} puts the trigger-mode overlap at {delta_t * 1e9:g} ns "
                f"delay {gap:.2e} from its closed form, beyond {MAX_OVERLAP_GAP:g}; use a finer grid"
            )
        try:
            f1, f2 = make_symmetric_antisymmetric(g1, g2)
        except DegenerateModes as exc:
            raise DegenerateModes(f"trigger modes at {delta_t * 1e9:g} ns delay: {exc}") from None
        modes = {"g1": g1, "g2": g2, "f1": f1, "f2": f2}
        basis = extend_orthonormal_basis([g1, g2], grid, 2)
    register = ModeRegister(modes=tuple(basis))
    state = apply_loss_channel(build_heralded_state(register, g1, modes["g2"]), config.eta)
    fixed = apply_loss(fixed_mode_distribution(ov), config.eta)
    f_plus, f_minus = fidelity_optimal(ov)
    analytic = {
        "g1": fixed, "g2": fixed,
        "f1": apply_loss(PhotonDistribution(np.array([f_minus, 0.0, f_plus])), config.eta),
        "f2": apply_loss(PhotonDistribution(np.array([f_plus, 0.0, f_minus])), config.eta),
    }
    return _DelayScene(state, modes, {name: analytic[name] for name in modes})


def _click_chunks(config: ExperimentConfig, duration: float) -> tuple[Iterator[np.ndarray], int, float, int]:
    """Trigger-beam clicks over ``duration`` seconds, chunk by chunk:
    (click times per chunk, chunks, duration, spare seed).

    One field of n samples is made by ``thermal_field_chunks`` in
    ceil(n / FIELD_CHUNK_SAMPLES) even chunks, and each chunk is thinned
    by ``sample_clicks`` on the calling thread, in one ``work`` dict of
    arrays, before the next is filtered.  The generator yields each
    chunk's click times, offset to the chunk's start, while the helper
    thread draws the next chunk's noise.  The times are bit-identical to
    calling ``synthesize_thermal_field`` and then ``sample_clicks`` per
    chunk with the same seeds.  The duration is the whole field's; the spare seed
    feeds the caller's next random step.
    """
    dt_field = config.field_dt_ns * 1e-9
    _check_rate(config.mean_rate_hz, dt_field)  # refused before the first draw
    n_samples = int(round(duration / dt_field))
    # one chunk at least, so a too-short duration raises DurationTooShort
    n_chunks = max(1, -(-n_samples // FIELD_CHUNK_SAMPLES))
    bounds = [n_samples * k // n_chunks for k in range(n_chunks + 1)]
    # 2k: field, 2k + 1: thinning; seeds are a prefix-stable sequence, so
    # the spare last seed leaves the chunk seeds unchanged
    seeds = _derive_seeds(config.rng_seed, 2 * n_chunks + 1)

    def chunks() -> Iterator[np.ndarray]:
        fields = thermal_field_chunks(config.gamma_hz, dt_field, np.diff(bounds).tolist(), seeds[:-1:2])
        work: dict = {}
        with contextlib.closing(fields):
            for k, field in enumerate(fields):
                clicks = sample_clicks(field, config.mean_rate_hz, seeds[2 * k + 1], work=work)
                yield clicks.times + bounds[k] * dt_field

    return chunks(), n_chunks, n_samples * dt_field, seeds[-1]


def _fit_states(config: ExperimentConfig, rhos: list[np.ndarray], seeds: list[int]) -> list[list[MLResult]]:
    """Per config seed in ``seeds``, the fit of each reduced state in ``rhos``,
    state k drawn from seed k of its ``_sample_seeds``, all in one EM batch."""
    draws = (
        quadrature_values(rho, config.samples_per_point, job_seed)
        for seed in seeds
        for rho, job_seed in zip(rhos, _sample_seeds(seed, len(rhos)))
    )
    results = ml_diagonal_batch(draws, config.ml_config())
    return [results[k : k + len(rhos)] for k in range(0, len(results), len(rhos))]


def _reduced_states(
    config: ExperimentConfig, delays_ns: list[float], mode: str
) -> tuple[list[np.ndarray], list[PhotonDistribution]]:
    """The state reduced to analysis mode ``mode`` and its closed form at each
    delay in ``delays_ns``, each scene built, reduced and dropped in turn."""
    rhos, analytic = [], []
    for delta_ns in delays_ns:
        scene = _build_scene(config, delta_ns * 1e-9)
        rhos.append(reduce_to_mode(scene.state, scene.modes[mode]))
        analytic.append(scene.analytic[mode])
    return rhos, analytic


def _sweep_fits(
    config: ExperimentConfig, mode: str, config_seeds: list[int]
) -> tuple[list[PhotonDistribution], list[list[MLResult]]]:
    """The closed form of analysis mode ``mode`` at each delay and, per
    config seed, its fit at each delay as ``_sweep`` makes it at that seed."""
    rhos, analytic = _reduced_states(config, config.delays_ns, mode)
    return analytic, _fit_states(config, rhos, config_seeds)


def _sweep(
    config: ExperimentConfig,
    out_dir: str | Path | None,
    name: str,
    mode: str,
    columns: list[str],
    photon_numbers: tuple[int, ...],
) -> list[dict]:
    """Tabulate ``_sweep_fits`` of analysis mode ``mode`` at the config seed.
    Each row holds the delay and then, for each n in ``photon_numbers``,
    the closed form, the reconstructed weight and its stderr at n, under
    ``columns``; the rows are written to <name>.csv and returned."""
    analytic, (results,) = _sweep_fits(config, mode, [config.rng_seed])
    table = []
    for delta_ns, closed, result in zip(config.delays_ns, analytic, results):
        per_n = [(closed.p(n), float(result.probs[n]), float(result.stderr[n])) for n in photon_numbers]
        table.append([delta_ns, *(value for triple in per_n for value in triple)])
    _write_outputs(config, out_dir, name, {f"{name}.csv": (table, ",".join(columns))})
    return [dict(zip(columns, row)) for row in table]


# ---------------------------------------------------------------------------
# drivers


def run_g2(config: ExperimentConfig, out_dir: str | Path | None = None) -> dict:
    """Simulate the trigger beam, histogram pair delays, compare to theory.

    Writes g2.csv (delay_ns, g2_empirical, g2_theory), summary.json, and a
    manifest.  Returns the summary dict.  Before any click, OutOfRange
    refuses bins that ``g2_bin_edges`` refuses and a g2_max_delay_ns below
    5 correlation times, 5/(pi*gamma), where the plateau that normalizes
    g2 is not yet flat, and InsufficientStatistics one whose g2_n_events
    expect fewer than 2,500 plateau pairs.
    """
    g2_bin_edges(config.g2_bin_ns * 1e-9, config.g2_max_delay_ns * 1e-9)  # refused before any click
    flat_ns = 5e9 / (math.pi * config.gamma_hz)
    if not config.g2_max_delay_ns >= flat_ns:
        raise OutOfRange(f"g2_max_delay_ns {config.g2_max_delay_ns:g} is below 5 correlation times, {flat_ns:.4g} ns")
    _check_plateau_pairs(config.g2_n_events, config.mean_rate_hz, config.g2_max_delay_ns * 1e-9)
    chunks, n_chunks, duration, _ = _click_chunks(config, config.g2_n_events / config.mean_rate_hz)
    n_clicks = 0

    def counted() -> Iterator[np.ndarray]:
        nonlocal n_clicks
        for times in chunks:
            n_clicks += times.size
            yield times
    with contextlib.closing(chunks):
        hist = g2_histogram(counted(), duration, config.g2_bin_ns * 1e-9, config.g2_max_delay_ns * 1e-9)
    theory = g2_closed_form(hist.bin_centers, config.gamma_hz)
    deviation = np.abs(hist.g2 - theory)
    table = np.column_stack([hist.bin_centers * 1e9, hist.g2, theory])
    summary = {
        "n_clicks": n_clicks,
        # the number of field chunks
        "n_segments": n_chunks,
        "duration_s": duration,
        "g2_zero": float(hist.g2[0]),
        "max_abs_deviation": float(deviation.max()),
        "rms_deviation": float(np.sqrt(np.mean(deviation**2))),
        "csv": str(_out_dir(config, out_dir, "g2") / "g2.csv"),
    }
    files = {"g2.csv": (table, "delay_ns,g2_empirical,g2_theory"), "summary.json": summary}
    _write_outputs(config, out_dir, "g2", files)
    return summary


def run_delay_sweep(config: ExperimentConfig, out_dir: str | Path | None = None) -> list[dict]:
    """Two-photon weight in the adapted mode f1 versus herald delay.

    For each delay: build the lossy state, reduce to f1, draw quadrature
    samples, reconstruct, and tabulate against the analytic weight
    eta**2 * F_plus(I).  Writes delay_sweep.csv with columns
    (delta_t_ns, P2_f1_analytic, P2_f1_reconstructed, stderr).
    """
    columns = ["delta_t_ns", "P2_f1_analytic", "P2_f1_reconstructed", "stderr"]
    return _sweep(config, out_dir, "delay_sweep", "f1", columns, (2,))


def run_fixed_mode_sweep(config: ExperimentConfig, out_dir: str | Path | None = None) -> list[dict]:
    """Photon-number weights in the fixed analysis mode g1 versus delay.

    Analytic curves compose the fixed-mode distribution with binomial
    loss; reconstructed points run the same sampling + EM pipeline as the
    adapted-mode sweep.  Writes fixed_sweep.csv with columns delta_t_ns
    and, for n = 0, 1, 2, (Pn_analytic, Pn_reconstructed, Pn_stderr).
    """
    kinds = ("analytic", "reconstructed", "stderr")
    columns = ["delta_t_ns"] + [f"P{n}_{kind}" for n in range(3) for kind in kinds]
    return _sweep(config, out_dir, "fixed_sweep", "g1", columns, (0, 1, 2))


def run_fock_panels(
    config: ExperimentConfig,
    delta_t_ns: float = 40.0,
    out_dir: str | Path | None = None,
) -> dict:
    """Reconstructed photon distributions in the four analysis modes
    (g1, g2, f1, f2) at one herald delay.

    Per mode: panel_<name>.json holds the tomography output, the analytic
    weights, and the exact reduced density matrix; mode_<name>.csv holds
    the mode shape for plotting.  The delay is t2 - t1 and must be
    positive: g1 names the earlier trigger, and at zero delay there is no f2.
    """
    if not 0.0 < delta_t_ns < math.inf:  # NaN fails this too
        raise OutOfRange(f"panel delay must be finite and positive, got {delta_t_ns} ns")
    scene = _build_scene(config, delta_t_ns * 1e-9)
    rhos = [reduce_to_mode(scene.state, mode) for mode in scene.modes.values()]
    (results,) = _fit_states(config, rhos, [config.rng_seed])
    panels, files = {}, {}
    for (name, mode), rho, result in zip(scene.modes.items(), rhos, results):
        panel = {
            "mode": name,
            "delta_t_ns": delta_t_ns,
            "n_samples": config.samples_per_point,
            "reconstruction": result.to_json_dict(),
            "stderr": [float(s) for s in result.stderr],
            "analytic_probs": [float(p) for p in scene.analytic[name].probs],
            "exact_rho": _rho_json(rho),
        }
        panels[name] = files[f"panel_{name}.json"] = panel
        files[f"mode_{name}.csv"] = (np.column_stack([mode.grid.times(), mode.samples]), "t_seconds,amplitude")
    _write_outputs(config, out_dir, "fock_panels", files)
    return panels


def end_to_end(config: ExperimentConfig, out_dir: str | Path | None = None) -> dict:
    """Full pipeline: trigger beam -> clicks -> coincidence pairs ->
    per-pair adapted-mode quadratures -> per-delay-bin tomography, compared
    against the analytic adapted-mode weights.

    Pairs are grouped into delay bins of width ``delta_t_bin_ns``; each
    group is simulated with the analysis modes of its bin-center delay,
    and its (x, theta) are drawn from the state reduced to f1, as a sweep
    point's are.  Every bin's state is reduced before the first click, so a
    bin whose scene cannot be built fails the run, skipped or not.  Bins
    holding fewer than ``min_pairs_per_bin`` pairs are skipped with a
    warning; if every bin is skipped, InsufficientPairs is raised.  Writes
    samples.csv (x, theta_rad, delta_t_ns) and report.json.
    """
    bin_width = config.delta_t_bin_ns * 1e-9
    n_bins = int(math.ceil(config.acceptance_window_ns / config.delta_t_bin_ns))
    edges = bin_width * np.arange(n_bins + 1)
    centers_ns = [(edges[b] + 0.5 * bin_width) * 1e9 for b in range(n_bins)]
    try:
        rhos, analytic = _reduced_states(config, centers_ns, "f1")
    except DegenerateModes as exc:  # only the first bin center can be that close
        raise DegenerateModes(
            f"{exc}; that is the first bin center, half of delta_t_bin_ns {config.delta_t_bin_ns:g}: widen the bins"
        ) from None
    chunks, _, duration, pair_seed = _click_chunks(config, config.end_to_end_duration_s)
    selector = CoincidenceSelector(
        window=config.acceptance_window_ns * 1e-9,
        dead_time=config.dead_time_ns * 1e-9,
        rng_seed=pair_seed,
    )
    n_clicks, pairs = 0, []
    with contextlib.closing(chunks):
        for times in chunks:
            n_clicks += times.size
            pairs.append(selector.feed(times))
    pairs = np.concatenate(pairs)
    if not len(pairs):
        raise InsufficientPairs("no coincidence pairs selected")
    delays = pairs[:, 1] - pairs[:, 0]
    which = np.clip(np.searchsorted(edges, delays, side="right") - 1, 0, n_bins - 1)
    bin_seeds = _sample_seeds(pair_seed ^ 0xE2E, n_bins)
    bins_report = []
    # per reconstructed bin: its (x, theta) in draw order, for samples.csv
    # beside its pairs' delays, and its pairs, report entry and closed form
    samples, fitted = [], []
    for b, center_ns in enumerate(centers_ns):
        idx = np.flatnonzero(which == b)
        entry = {
            "delta_t_bin_center_ns": center_ns,
            "n_pairs": int(idx.size),
            "skipped": False,
        }
        bins_report.append(entry)
        if idx.size < config.min_pairs_per_bin:
            if idx.size:
                warnings.warn(
                    f"delay bin at {center_ns:.1f} ns holds {idx.size} pairs "
                    f"(< {config.min_pairs_per_bin}); skipping reconstruction",
                    stacklevel=2,
                )
            entry["skipped"] = True
            continue
        samples.append(sample_quadratures(rhos[b], idx.size, bin_seeds[b]))
        fitted.append((idx, entry, analytic[b]))
    if not samples:
        raise InsufficientPairs(
            f"no delay bin reached {config.min_pairs_per_bin} pairs; "
            f"got {len(pairs)} pairs over {n_bins} bins"
        )
    results = ml_diagonal_batch(samples, config.ml_config())
    for (_, entry, closed), result in zip(fitted, results):
        entry["reconstruction"] = result.to_json_dict()
        entry["stderr"] = [float(s) for s in result.stderr]
        entry["analytic_probs"] = [float(p) for p in closed.probs]
        entry["P2_pull"] = float((result.probs[2] - closed.p(2)) / result.stderr[2])
    rows = [np.column_stack([xt, delays[idx] * 1e9]) for xt, (idx, _, _) in zip(samples, fitted)]
    report = {
        "n_clicks": n_clicks,
        "n_pairs": int(len(pairs)),
        "n_bins": n_bins,
        "n_bins_reconstructed": len(samples),
        "duration_s": duration,
        "bins": bins_report,
    }
    samples_table = (np.concatenate(rows), "x,theta_rad,delta_t_ns")
    _write_outputs(config, out_dir, "end_to_end", {"samples.csv": samples_table, "report.json": report})
    return report


def reconstruct_samples(
    samples_csv: str | Path,
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
) -> dict:
    """Tomography of an existing quadrature CSV (columns x[,theta_rad[,...]]).

    Writes reconstruction.json holding the tomography output plus its
    standard errors.
    """
    x = _read_samples_csv(samples_csv)
    result = ml_diagonal(x, config.ml_config())
    payload = result.to_json_dict()
    payload["stderr"] = [float(s) for s in result.stderr]
    payload["n_samples"] = int(x.size)
    payload["source"] = str(samples_csv)
    _write_outputs(config, out_dir, "reconstruct", {"reconstruction.json": payload})
    return payload


def _read_samples_csv(path: str | Path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line for line in fh if line.strip()]
    if header[0] != "x":
        raise OutOfRange(f"{path}: expected a header starting with 'x'")
    if not rows:
        raise OutOfRange(f"{path}: no samples")
    try:
        return np.loadtxt(rows, delimiter=",", ndmin=2)[:, 0]
    except ValueError as exc:  # a field that is not a number, or a ragged row
        raise OutOfRange(f"{path}: {exc}") from exc
