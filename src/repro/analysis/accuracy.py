"""Accuracy-side experiments on the trainable substrate.

The paper's accuracy columns come from ImageNet training; here they come
from the synthetic classification task (:mod:`repro.data.synthetic`) on
scaled ResNets.  What must carry over is the *ranking* between
configurations, not the absolute top-1.

:class:`AccuracyWorkbench` owns the datasets and caches trained
checkpoints, so Table 1/2/3 rows that share a training run (e.g. every
quantized row starts from the trained FP32 epitome model) reuse it instead
of retraining.

Presets control cost:

- ``smoke``   — seconds; used by the integration tests;
- ``default`` — a few minutes; the ``run_table*`` runners' default;
- ``full``    — tens of minutes; the largest task and longest schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .. import nn
from ..baselines.element_prune import Pruner
from ..core.designer import (
    convert_model,
    model_compression_summary,
    spec_from_model,
)
from ..core.equant import EpitomeQuantConfig, apply_epitome_quantization
from ..search import (
    EvoSearchConfig,
    GridCache,
    build_candidate_grid,
    evaluate_assignment,
    evolution_search,
)
from ..data.synthetic import make_synthetic_classification
from ..models.resnet import resnet20
from ..nn.data import DataLoader
from ..nn.functional import cross_entropy
from ..nn.training import TrainConfig, evaluate_accuracy, train_classifier
from ..pim.simulator import baseline_deployment, simulate_network
from ..quant.hawq import allocate_bits, layer_sensitivities

__all__ = ["AccuracyPreset", "PRESETS", "AccuracyWorkbench"]


@dataclass(frozen=True)
class AccuracyPreset:
    """Size/budget of the accuracy experiments.

    ``noise`` sets task difficulty; it is tuned (1.2) so the trained models
    sit in the high-80s/low-90s — the regime where quantization-induced
    degradation is visible, mirroring the paper's ImageNet operating point.
    Presets that undertrain hide the rankings (a half-trained FP32 model
    can lose to a QAT run that simply trained longer).
    """

    name: str
    num_train: int
    num_val: int
    num_classes: int
    image_size: int
    epochs: int
    qat_epochs: int
    finetune_epochs: int
    lr: float = 0.05
    batch_size: int = 32
    noise: float = 1.2
    seed: int = 0
    epitome_rows: int = 128
    epitome_cols: int = 32
    # Crossbar size used for the *quantization grouping* on the scaled
    # substrate models.  The paper's 1024-row epitomes span 4+ arrays of
    # 256 rows; our 128-row epitomes span 2+ arrays of 64 rows — same
    # groups-per-epitome ratio, so the per-crossbar-scale mechanism
    # (section 4.2) is exercised rather than degenerate.
    quant_xbar: int = 64

    def train_config(self, epochs: Optional[int] = None,
                     lr: Optional[float] = None) -> TrainConfig:
        return TrainConfig(epochs=epochs if epochs is not None else self.epochs,
                           lr=lr if lr is not None else self.lr)


PRESETS: Dict[str, AccuracyPreset] = {
    "smoke": AccuracyPreset(
        name="smoke", num_train=512, num_val=192, num_classes=10,
        image_size=16, epochs=6, qat_epochs=2, finetune_epochs=2),
    "default": AccuracyPreset(
        name="default", num_train=1024, num_val=320, num_classes=10,
        image_size=16, epochs=8, qat_epochs=3, finetune_epochs=3),
    "full": AccuracyPreset(
        name="full", num_train=4096, num_val=1024, num_classes=10,
        image_size=32, epochs=15, qat_epochs=5, finetune_epochs=5),
}


class AccuracyWorkbench:
    """Shared datasets + cached checkpoints for all accuracy experiments."""

    def __init__(self, preset: AccuracyPreset = PRESETS["default"],
                 model_factory: Optional[Callable[[], nn.Module]] = None):
        self.preset = preset
        self._model_factory = model_factory or (
            lambda: resnet20(num_classes=preset.num_classes, seed=preset.seed))
        train_set, val_set = make_synthetic_classification(
            num_train=preset.num_train, num_val=preset.num_val,
            num_classes=preset.num_classes, image_size=preset.image_size,
            noise=preset.noise, seed=1234 + preset.seed)
        self.train_set = train_set
        self.val_set = val_set
        self._cache: Dict[str, Tuple[Dict[str, np.ndarray], float]] = {}

    # ------------------------------------------------------------------
    def loaders(self) -> Tuple[DataLoader, DataLoader]:
        rng = np.random.default_rng(self.preset.seed)
        train_loader = DataLoader(self.train_set,
                                  batch_size=self.preset.batch_size,
                                  shuffle=True, rng=rng)
        val_loader = DataLoader(self.val_set,
                                batch_size=2 * self.preset.batch_size)
        return train_loader, val_loader

    def _fresh_model(self) -> nn.Module:
        return self._model_factory()

    def _fresh_epitome_model(self, assignment=None,
                             rows_cols: Optional[Tuple[int, int]] = None
                             ) -> nn.Module:
        model = self._fresh_model()
        rows = rows_cols[0] if rows_cols else self.preset.epitome_rows
        cols = rows_cols[1] if rows_cols else self.preset.epitome_cols
        convert_model(model, rows=rows, cols=cols,
                      assignment=assignment, seed=self.preset.seed)
        return model

    def quant_hardware_config(self):
        """Hardware config used for quantization grouping on this substrate."""
        from ..pim.config import HardwareConfig
        xb = self.preset.quant_xbar
        return HardwareConfig(xbar_rows=xb, xbar_cols=xb,
                              adc_share=min(8, xb))

    # ------------------------------------------------------------------
    # Cached training runs
    # ------------------------------------------------------------------
    def baseline(self) -> Tuple[nn.Module, float]:
        """Trained FP32 convolutional baseline."""
        if "baseline" not in self._cache:
            model = self._fresh_model()
            train_loader, val_loader = self.loaders()
            train_classifier(model, train_loader, val_loader,
                             self.preset.train_config())
            acc = evaluate_accuracy(model, val_loader)
            self._cache["baseline"] = (model.state_dict(), acc)
        state, acc = self._cache["baseline"]
        model = self._fresh_model()
        model.load_state_dict(state)
        return model, acc

    def epitome_fp(self, assignment=None, cache_key: str = "epitome_fp",
                   rows_cols: Optional[Tuple[int, int]] = None
                   ) -> Tuple[nn.Module, float]:
        """Trained FP32 epitome model (uniform or custom assignment).

        ``rows_cols`` overrides the preset's uniform epitome budget — used
        by Table 3, which needs a *gentler* design (~2x parameter CR) so
        epitome and PIM-Prune are compared at matched compression, as in
        the paper.
        """
        if cache_key not in self._cache:
            model = self._fresh_epitome_model(assignment, rows_cols)
            train_loader, val_loader = self.loaders()
            train_classifier(model, train_loader, val_loader,
                             self.preset.train_config())
            acc = evaluate_accuracy(model, val_loader)
            self._cache[cache_key] = (model.state_dict(), acc)
        state, acc = self._cache[cache_key]
        model = self._fresh_epitome_model(assignment, rows_cols)
        model.load_state_dict(state)
        return model, acc

    # ------------------------------------------------------------------
    # Quantization experiments (Table 1 accuracy column + Table 2)
    # ------------------------------------------------------------------
    def quantized_accuracy(self, bits: int, mode: str = "crossbar_overlap",
                           bit_map: Optional[Dict[str, int]] = None,
                           assignment=None,
                           base_key: str = "epitome_fp",
                           cache_key: Optional[str] = None) -> float:
        """QAT fine-tune the trained epitome model at a precision; top-1.

        ``base_key`` selects which trained FP checkpoint to start from —
        pass a distinct key together with a custom ``assignment`` so
        layer-wise designs do not silently reuse the uniform checkpoint.
        """
        key = cache_key or f"quant-{bits}-{mode}-{bool(bit_map)}"
        if key in self._cache:
            return self._cache[key][1]
        model, _ = self.epitome_fp(assignment, cache_key=base_key)
        quant = EpitomeQuantConfig(bits=bits, mode=mode)
        config = self.quant_hardware_config()
        apply_epitome_quantization(model, quant, bit_map=bit_map,
                                   config=config)
        train_loader, val_loader = self.loaders()

        def refresh(_epoch, _result):
            apply_epitome_quantization(model, quant, bit_map=bit_map,
                                       config=config)

        train_classifier(
            model, train_loader, val_loader,
            self.preset.train_config(epochs=self.preset.qat_epochs,
                                     lr=self.preset.lr * 0.1),
            epoch_callback=refresh)
        acc = evaluate_accuracy(model, val_loader)
        self._cache[key] = (model.state_dict(), acc)
        return acc

    def ptq_accuracy(self, bits: int, mode: str = "crossbar_overlap",
                     w1: float = 0.7) -> float:
        """Post-training quantization accuracy (no QAT recovery).

        Isolates the range-setting mechanism of section 4.2: the three
        modes differ most visibly here, before fine-tuning can compensate.
        """
        model, _ = self.epitome_fp()
        quant = EpitomeQuantConfig(bits=bits, mode=mode, w1=w1, w2=1.0 - w1)
        apply_epitome_quantization(model, quant,
                                   config=self.quant_hardware_config())
        _, val_loader = self.loaders()
        return evaluate_accuracy(model, val_loader)

    def hawq_bit_map(self, bits_low: int = 3, bits_high: int = 5,
                     budget_fraction: float = 0.5,
                     n_samples: int = 2) -> Dict[str, int]:
        """Genuine HAWQ allocation: FD-HVP Hessian traces on the trained
        epitome model + greedy demotion under a crossbar budget."""
        model, _ = self.epitome_fp()
        train_loader, _ = self.loaders()
        images, labels = next(iter(train_loader))
        x = nn.Tensor(images)

        def loss_fn():
            return cross_entropy(model(x), labels)

        sens = layer_sensitivities(
            model, loss_fn,
            param_filter=lambda name: name.endswith("epitome"),
            n_samples=n_samples,
            rng=np.random.default_rng(self.preset.seed))
        # Map parameter names ("...convX.epitome") to module paths.
        sens_by_module = []
        for s in sens:
            module_path = s.name.rsplit(".", 1)[0]
            sens_by_module.append(replace_name(s, module_path))

        # With 2-bit cells, 4-bit weights cost the same cells as 3-bit, so
        # the meaningful mixed grid is {3, 5} — matching the paper's
        # "3-5 bit" description of W3mp.
        candidate_bits = [bits_low, bits_high]
        epitome_modules = {name: module for name, module in model.named_modules()
                           if hasattr(module, "plan")}
        cell_bits = _default_config().cell_bits

        def cost_fn(name: str, bits: int) -> float:
            # Cell count (rows x cols x slices): the scale-free version of
            # the crossbar cost, meaningful even when every layer fits in a
            # fraction of one array (the scaled accuracy models).
            shape = epitome_modules[name].epitome_shape
            slices = -(-bits // cell_bits)
            return float(shape.rows * shape.cols * slices)

        names = [s.name for s in sens_by_module]
        low_total = sum(cost_fn(n, bits_low) for n in names)
        high_total = sum(cost_fn(n, bits_high) for n in names)
        budget = low_total + budget_fraction * (high_total - low_total)
        return allocate_bits(sens_by_module, candidate_bits, cost_fn, budget)

    # ------------------------------------------------------------------
    # Layer-wise designed models (Table 1's -Opt rows)
    # ------------------------------------------------------------------
    def layerwise_opt_accuracy(self, objective: str = "latency",
                               budget_fraction: float = 0.8,
                               weight_bits: int = 9,
                               grid_cache: Optional[GridCache] = None
                               ) -> Tuple[float, float]:
        """Search a layer-wise design on this model's own spec, train, QAT.

        Mirrors Table 1's "-Opt" rows on the trainable substrate: run
        Algorithm 1 on the traced layer shapes (own candidate ladder scaled
        from the preset's uniform budget), train an epitome model with the
        found assignment from scratch, then QAT it at ``weight_bits``.
        ``grid_cache`` persists the candidate grid's simulations (the
        traced spec's shapes dedup and cache just like the full-size
        ones).

        Returns ``(accuracy, crossbar_compression)``.
        """
        key = f"opt-{objective}"
        if key in self._cache:
            return self._cache[key][1], self._cache[key + "-cr"][1]
        probe = self._fresh_epitome_model()
        spec = spec_from_model(probe, (self.preset.image_size,) * 2)
        rows, cols = self.preset.epitome_rows, self.preset.epitome_cols
        candidates = [None, (rows * 2, cols * 2), (rows, cols),
                      (max(rows // 2, 16), max(cols // 2, 4)),
                      (max(rows // 2, 16), cols)]
        grid = build_candidate_grid(spec, candidates, weight_bits=weight_bits,
                                    activation_bits=9, use_wrapping=True,
                                    cache=grid_cache)
        base = simulate_network([baseline_deployment(l, weight_bits=None)
                                 for l in spec])
        # Budget: a fraction of the uniform design's crossbar demand.
        uniform_genome = [(rows, cols) if (rows, cols) in grid.candidates[l.name]
                          else None for l in spec]
        uniform_eval = evaluate_assignment(grid, uniform_genome)
        budget = max(1, int(uniform_eval.crossbars * budget_fraction))
        result = evolution_search(
            grid, budget,
            EvoSearchConfig(objective=objective, seed=self.preset.seed))
        acc = self.quantized_accuracy(
            weight_bits, mode="crossbar_overlap",
            assignment=dict(result.assignment),
            base_key=f"epitome_fp-{key}", cache_key=key)
        cr = base.num_crossbars / max(result.eval.crossbars, 1)
        self._cache[key + "-cr"] = ({}, cr)
        return acc, cr

    # ------------------------------------------------------------------
    # Pruning experiments (Table 3)
    # ------------------------------------------------------------------
    def pruned_baseline_accuracy(self, ratio: float,
                                 structured: bool = True
                                 ) -> Tuple[float, float]:
        """PIM-Prune regime: prune the conv baseline + fine-tune.

        ``structured=True`` (default) uses PIM-Prune's crossbar-structured
        row-segment masks — the patterns whose compaction actually frees
        crossbars; set False for plain element pruning.

        Returns ``(accuracy, parameter_compression)`` over the whole model.
        """
        key = f"prune-{ratio}-{structured}"
        if key in self._cache:
            return self._cache[key][1], self._cache[key + "-cr"][1]
        model, _ = self.baseline()
        pruner = Pruner(model, ratio, scope="conv", structured=structured,
                        block_cols=self.preset.quant_xbar)
        train_loader, val_loader = self.loaders()

        def reapply(_epoch, _result):
            pruner.apply()

        train_classifier(
            model, train_loader, val_loader,
            self.preset.train_config(epochs=self.preset.finetune_epochs,
                                     lr=self.preset.lr * 0.1),
            epoch_callback=reapply)
        pruner.apply()
        acc = evaluate_accuracy(model, val_loader)
        total = model.num_parameters()
        pruned_cost = (total - pruner.num_weights
                       + pruner.num_weights / max(pruner.compression, 1e-9))
        cr = total / pruned_cost
        self._cache[key] = ({}, acc)
        self._cache[key + "-cr"] = ({}, cr)
        return acc, cr

    def epitome_pruned_accuracy(self, ratio: float,
                                rows_cols: Optional[Tuple[int, int]] = None
                                ) -> Tuple[float, float]:
        """Epitome + element pruning (Table 3's combined row).

        Returns ``(accuracy, parameter_compression)`` where compression
        counts the epitome compression *times* the pruning of the epitomes.
        """
        key = f"ep-prune-{ratio}-{rows_cols}"
        if key in self._cache:
            return self._cache[key][1], self._cache[key + "-cr"][1]
        model, _ = self.epitome_fp(rows_cols=rows_cols,
                                   cache_key=f"epitome_fp-{rows_cols}"
                                   if rows_cols else "epitome_fp")
        pruner = Pruner(model, ratio, scope="epitome")
        train_loader, val_loader = self.loaders()

        def reapply(_epoch, _result):
            pruner.apply()

        train_classifier(
            model, train_loader, val_loader,
            self.preset.train_config(epochs=self.preset.finetune_epochs,
                                     lr=self.preset.lr * 0.1),
            epoch_callback=reapply)
        pruner.apply()
        acc = evaluate_accuracy(model, val_loader)
        summary = model_compression_summary(model)
        actual = summary["params"]
        virtual = summary["virtual_params"]
        pruned_cost = (actual - pruner.num_weights
                       + pruner.num_weights / max(pruner.compression, 1e-9))
        cr = virtual / pruned_cost
        self._cache[key] = ({}, acc)
        self._cache[key + "-cr"] = ({}, cr)
        return acc, cr

    def epitome_param_compression(self,
                                  rows_cols: Optional[Tuple[int, int]] = None
                                  ) -> float:
        """Whole-model parameter compression of the uniform epitome design."""
        model, _ = self.epitome_fp(rows_cols=rows_cols,
                                   cache_key=f"epitome_fp-{rows_cols}"
                                   if rows_cols else "epitome_fp")
        return model_compression_summary(model)["compression"]


def replace_name(sens, new_name: str):
    """Return a LayerSensitivity with a rewritten name."""
    from ..quant.hawq import LayerSensitivity
    return LayerSensitivity(name=new_name, trace=sens.trace,
                            num_params=sens.num_params)


def _default_config():
    from ..pim.config import DEFAULT_CONFIG
    return DEFAULT_CONFIG
