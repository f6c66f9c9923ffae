"""The end-to-end phase-level characterization pipeline.

Chains the paper's six methodology steps:

1. microarchitecture-independent characterization (``repro.mica``),
2. interval sampling (``repro.core.sampling``),
3. PCA with Kaiser retention and rescaling (``repro.stats.pca``),
4. k-means + BIC clustering and prominent-phase selection,
5. GA selection of the key characteristics (``repro.ga``),
6. kiviat/pie visualization data (``repro.viz``).

Steps 1-2 are performed by :func:`repro.core.dataset.build_dataset`;
:func:`run_characterization` performs 3-5 on the resulting dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

if TYPE_CHECKING:  # import-time cycle: repro.io.cache imports repro.core
    from ..io.artifacts import StageCheckpoint
    from ..io.feature_blocks import FeatureBlockCache
    from ..suites import Benchmark

from ..config import AnalysisConfig
from ..ga import DistanceCorrelationFitness, GAResult, select_features
from ..mica import N_FEATURES, feature_names
from ..obs import emit_progress, get_logger, metrics, span
from ..stats import Clustering, fit_pca, kmeans
from ..synth.rng import generator
from .dataset import WorkloadDataset, build_dataset
from .prominent import ProminentPhases, select_prominent_phases

log = get_logger(__name__)

PathLike = Union[str, Path]


@dataclass
class PhaseCharacterization:
    """Everything the analyses and visualizations consume.

    Attributes:
        dataset: the sampled, characterized intervals.
        space: rows of ``dataset`` projected into the rescaled PCA space.
        n_components: retained principal components.
        explained_variance: fraction of total variance they explain
            (the paper's "85.4%").
        clustering: the best-BIC k-means clustering of ``space``.
        prominent: the prominent-phase selection.
        key_characteristics: GA-selected characteristic names (kiviat
            axes), or None if the GA step was skipped.
        ga_result: the GA run behind ``key_characteristics``.
    """

    dataset: WorkloadDataset
    space: np.ndarray
    n_components: int
    explained_variance: float
    clustering: Clustering
    prominent: ProminentPhases
    key_characteristics: Optional[List[str]]
    ga_result: Optional[GAResult]

    @property
    def prominent_matrix(self) -> np.ndarray:
        """Raw 69-dim characteristics of the prominent-phase representatives."""
        return self.dataset.features[self.prominent.representative_rows]


_ANALYSIS_ARRAYS = (
    "space",
    "labels",
    "centers",
    "prominent_cluster_ids",
    "prominent_weights",
    "prominent_representatives",
)
_ANALYSIS_META = ("n_components", "explained_variance", "bic", "inertia", "n_iter")


def _load_analysis_stage(checkpoint: Optional["StageCheckpoint"]):
    """Unpack a checkpointed PCA/clustering/prominent stage, if any."""
    if checkpoint is None:
        return None
    loaded = checkpoint.load(
        "analysis", require_arrays=_ANALYSIS_ARRAYS, require_meta=_ANALYSIS_META
    )
    if loaded is None:
        return None
    arrays, meta = loaded
    clustering = Clustering(
        centers=arrays["centers"],
        labels=arrays["labels"],
        bic=float(meta["bic"]),
        inertia=float(meta["inertia"]),
        n_iter=int(meta["n_iter"]),
    )
    prominent = ProminentPhases(
        cluster_ids=arrays["prominent_cluster_ids"],
        weights=arrays["prominent_weights"],
        representative_rows=arrays["prominent_representatives"],
    )
    return (
        arrays["space"],
        int(meta["n_components"]),
        float(meta["explained_variance"]),
        clustering,
        prominent,
    )


def _load_ga_stage(checkpoint: Optional["StageCheckpoint"]) -> Optional[GAResult]:
    """Unpack a checkpointed GA stage, if any."""
    if checkpoint is None:
        return None
    loaded = checkpoint.load("ga", require_arrays=("mask",), require_meta=("fitness",))
    if loaded is None:
        return None
    arrays, meta = loaded
    return GAResult(
        mask=arrays["mask"].astype(bool),
        fitness=float(meta["fitness"]),
        history=[float(h) for h in meta.get("history", [])],
    )


def run_characterization(
    dataset: WorkloadDataset,
    config: AnalysisConfig,
    *,
    select_key: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    checkpoint: Optional["StageCheckpoint"] = None,
) -> PhaseCharacterization:
    """Run PCA, clustering, prominent-phase selection and the GA.

    Args:
        dataset: output of :func:`repro.core.dataset.build_dataset`.
        config: methodology parameters; ``config.n_jobs`` /
            ``config.parallel_backend`` fan the k-means restarts across
            workers, which never changes the result (bit-identical for
            a fixed seed at any worker count).
        select_key: run the GA key-characteristic selection (step 5);
            disable for analyses that only need the clustering.
        progress: optional sink for per-generation GA progress lines
            (best fitness, fitness-cache hit rate).  *Deprecated:* the
            same lines are emitted at INFO level through
            :mod:`repro.obs.log`, and the underlying numbers land in
            the metrics registry; the callback is kept as a thin
            adapter for backward compatibility.
        checkpoint: optional :class:`repro.io.StageCheckpoint`.  The
            PCA/clustering/prominent block (stage ``analysis``) and the
            GA (stage ``ga``) are each persisted atomically as they
            complete and, when the checkpoint allows resume, completed
            stages are loaded instead of recomputed.  Results are
            bit-identical with or without resume because every stage
            draws from its own seeded RNG stream.

    Returns:
        The complete :class:`PhaseCharacterization`.
    """
    reg = metrics()
    # Coarse live progress over the analysis macro-steps (pca, kmeans,
    # prominent, and the GA when selected); the finer-grained per-unit
    # streams (restarts, generations) come from the stages themselves.
    analysis_steps = 4 if select_key else 3
    resumed = _load_analysis_stage(checkpoint)
    if resumed is not None:
        space, n_components, explained, clustering, prominent = resumed
        emit_progress("analysis", 3, analysis_steps)
        log.info("analysis stage resumed from checkpoint")
    else:
        with span("pca", rows=len(dataset)) as sp:
            model = fit_pca(dataset.features).retained(config.pca_min_std)
            scores = model.transform(dataset.features)
            std = scores.std(axis=0)
            scale = np.where(std > 0, std, 1.0)
            space = (scores - scores.mean(axis=0)) / scale
            explained = float(model.explained_ratio.sum())
            sp.set(n_components=model.n_components, explained_variance=explained)
        n_components = model.n_components
        emit_progress("analysis", 1, analysis_steps)
        reg.gauge_set("pca.n_components", n_components)
        reg.gauge_set("pca.explained_variance", explained)
        log.info(
            "pca: retained %d components (%.1f%% variance)",
            n_components,
            100 * explained,
        )

        rng = generator("kmeans", config.seed)
        with span("kmeans", k=config.n_clusters, restarts=config.kmeans_restarts) as sp:
            clustering = kmeans(
                space,
                config.n_clusters,
                restarts=config.kmeans_restarts,
                max_iter=config.kmeans_max_iter,
                rng=rng,
                n_jobs=config.n_jobs,
                backend=config.parallel_backend,
            )
            sp.set(bic=clustering.bic, inertia=clustering.inertia, n_iter=clustering.n_iter)
        emit_progress("analysis", 2, analysis_steps)
        log.info(
            "kmeans: k=%d best BIC %.2f after %d restarts",
            clustering.k,
            clustering.bic,
            config.kmeans_restarts,
        )
        with span("prominent", n=config.n_prominent) as sp:
            prominent = select_prominent_phases(space, clustering, config.n_prominent)
            sp.set(selected=len(prominent), coverage=prominent.coverage)
        emit_progress("analysis", 3, analysis_steps)
        reg.gauge_set("prominent.coverage", prominent.coverage)
        if checkpoint is not None:
            checkpoint.save(
                "analysis",
                {
                    "space": space,
                    "labels": clustering.labels,
                    "centers": clustering.centers,
                    "prominent_cluster_ids": prominent.cluster_ids,
                    "prominent_weights": prominent.weights,
                    "prominent_representatives": prominent.representative_rows,
                },
                meta={
                    "n_components": n_components,
                    "explained_variance": explained,
                    "bic": clustering.bic,
                    "inertia": clustering.inertia,
                    "n_iter": clustering.n_iter,
                },
            )

    key_names: Optional[List[str]] = None
    ga_result: Optional[GAResult] = None
    if select_key:
        ga_result = _load_ga_stage(checkpoint)
        if ga_result is not None:
            log.info("ga stage resumed from checkpoint")
        else:
            with span("ga", n_select=config.n_key_characteristics) as sp:
                fitness = DistanceCorrelationFitness(
                    dataset.features[prominent.representative_rows],
                    pca_min_std=config.pca_min_std,
                )
                ga_result = select_features(
                    fitness,
                    N_FEATURES,
                    config.n_key_characteristics,
                    config=config,
                    rng=generator("ga", config.seed),
                    progress=progress,
                )
                sp.set(fitness=ga_result.fitness, generations=ga_result.generations)
            if checkpoint is not None:
                checkpoint.save(
                    "ga",
                    {"mask": ga_result.mask},
                    meta={
                        "fitness": ga_result.fitness,
                        "history": [float(h) for h in ga_result.history],
                    },
                )
        emit_progress("analysis", 4, analysis_steps)
        names = feature_names()
        key_names = [names[i] for i in ga_result.selected_indices()]
    return PhaseCharacterization(
        dataset=dataset,
        space=space,
        n_components=n_components,
        explained_variance=explained,
        clustering=clustering,
        prominent=prominent,
        key_characteristics=key_names,
        ga_result=ga_result,
    )


#: Arrays the dataset stage checkpoint must carry to be resumable.
DATASET_STAGE_ARRAYS = ("features", "suites", "benchmarks", "interval_indices")


def characterize_to_file(
    benchmarks: Sequence["Benchmark"],
    config: AnalysisConfig,
    output: PathLike,
    *,
    suite_tag: str = "all",
    resume: bool = True,
    select_key: bool = True,
    feature_cache: Optional["FeatureBlockCache"] = None,
    span_attrs: Optional[Dict[str, Any]] = None,
) -> PhaseCharacterization:
    """Run the whole pipeline crash-safely and save the result to ``output``.

    The stage-orchestration shape every entry point shares — the
    ``characterize`` CLI and the service workers both call this.  Each
    completed stage (dataset → analysis → GA) lands atomically in
    ``<output>.stages/`` keyed by ``suite_tag`` + the config's full
    key; with ``resume`` (the default) a re-run of a killed invocation
    — by the same process, a retry, or *a different worker* — picks up
    from the last finished stage, bit-identically, because every stage
    draws from its own seeded RNG stream.

    Args:
        benchmarks: the workloads to characterize.
        config: methodology + execution parameters.
        output: destination ``.npz``; written atomically at the end.
        suite_tag: encodes the benchmark selection into the stage key
            so checkpoints from a different selection never resume.
        resume: load completed stage checkpoints instead of recomputing
            (checkpoints are written either way).
        select_key: run the GA key-characteristic stage.
        feature_cache: optional per-benchmark feature-block cache.
        span_attrs: extra attributes for the root ``characterize`` span
            (the CLI passes the preset name; workers pass the job id).

    Returns:
        The complete :class:`PhaseCharacterization` (also saved to
        ``output``).
    """
    # Lazy imports: results/artifacts both import back into repro.core
    # and repro.obs at module scope.
    from ..io.artifacts import StageCheckpoint
    from .results import dataset_arrays, dataset_from_arrays, save_characterization

    stage_root = Path(f"{output}.stages")
    run_key = f"{suite_tag}_{config.full_key()}"
    checkpoint = StageCheckpoint(stage_root, run_key, resume=resume)
    with span("characterize", benchmarks=len(benchmarks), **(span_attrs or {})):
        loaded = checkpoint.load("dataset", require_arrays=DATASET_STAGE_ARRAYS)
        if loaded is not None:
            dataset = dataset_from_arrays(loaded[0])
            log.info("resumed dataset stage from %s", checkpoint.path("dataset"))
        else:
            dataset = build_dataset(benchmarks, config, feature_cache=feature_cache)
            checkpoint.save("dataset", dataset_arrays(dataset))
        result = run_characterization(
            dataset, config, select_key=select_key, checkpoint=checkpoint
        )
    save_characterization(result, output)
    return result
