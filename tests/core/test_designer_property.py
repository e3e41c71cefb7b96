"""Property-based tests for the epitome designer and shape chooser."""

import math
from dataclasses import fields

from hypothesis import given, settings, strategies as st

from repro.core.designer import (
    MIN_EPITOME_IN_CHANNELS,
    build_deployments,
    choose_epitome_shape,
)
from repro.core.epitome import build_plan
from repro.models.specs import LayerSpec, get_network_spec
from repro.pim.simulator import (
    LayerDeployment,
    baseline_deployment,
    epitome_deployment_from_plan,
)

MODELS = ("resnet18", "resnet34", "resnet50", "resnet101", "vgg16")
# (weight_bits, activation_bits): FP32, the paper's W9A9 and W3A9.
PRECISIONS = ((None, None), (9, 9), (3, 9))
# Patch schedules above this size are left out of an example so the plan
# reference stays fast; the closed form itself has no such bound.
MAX_PLAN_PATCHES = 1024


def layer_strategy():
    return st.builds(
        lambda ci, co, k: LayerSpec(
            "L", "conv", ci, co, (k, k), 1, (14, 14), (14, 14)),
        ci=st.integers(1, 512),
        co=st.integers(1, 512),
        k=st.sampled_from([1, 3, 5, 7]),
    )


@given(spec=layer_strategy(), rows=st.integers(8, 2048),
       cols=st.integers(4, 512))
@settings(max_examples=100, deadline=None)
def test_chosen_shape_always_buildable_and_compressing(spec, rows, cols):
    """Whatever the designer returns must (a) build a valid plan, (b) have
    strictly fewer parameters than the conv, and (c) leave no epitome
    element unused (no dead parameters)."""
    shape = choose_epitome_shape(spec, rows, cols)
    if shape is None:
        return
    assert spec.in_channels >= MIN_EPITOME_IN_CHANNELS
    plan = build_plan((spec.out_channels, spec.in_channels,
                       *spec.kernel_size), shape)
    assert shape.num_params < spec.num_weights
    counts = plan.repetition_counts()
    assert counts.min() >= 1


@given(spec=layer_strategy(), rows=st.integers(8, 2048),
       cols=st.integers(4, 512))
@settings(max_examples=60, deadline=None)
def test_shape_respects_budget(spec, rows, cols):
    """The chosen epitome never exceeds the requested rows x cols budget
    (after clipping to the layer's own extent)."""
    shape = choose_epitome_shape(spec, rows, cols)
    if shape is None:
        return
    assert shape.cols <= min(cols, spec.weight_cols)
    assert shape.rows <= max(rows, spec.kernel_size[0] * spec.kernel_size[1])


@given(spec=layer_strategy())
@settings(max_examples=40, deadline=None)
def test_low_channel_layers_never_converted(spec):
    if spec.in_channels < MIN_EPITOME_IN_CHANNELS:
        assert choose_epitome_shape(spec, 1024, 256) is None


def plan_deployments(spec, assignment, weight_bits, activation_bits,
                     use_wrapping):
    """The reference deployment rule: build each epitome layer's patch
    schedule and sum it (:func:`epitome_deployment_from_plan`)."""
    deployments = []
    for layer in spec:
        choice = assignment.get(layer.name)
        shape = (choose_epitome_shape(layer, *choice)
                 if choice is not None else None)
        if shape is None:
            deployments.append(baseline_deployment(
                layer, weight_bits=weight_bits,
                activation_bits=activation_bits))
            continue
        plan = build_plan(
            (layer.out_channels, layer.in_channels, *layer.kernel_size),
            shape, with_index_map=False)
        deployments.append(epitome_deployment_from_plan(
            layer, plan, weight_bits=weight_bits,
            activation_bits=activation_bits, use_wrapping=use_wrapping))
    return deployments


def plan_patches(layer, choice):
    shape = choose_epitome_shape(layer, *choice)
    if shape is None:
        return 0
    return (math.ceil(layer.out_channels / shape.out_channels)
            * math.ceil(layer.in_channels / shape.in_channels))


@given(data=st.data(), model=st.sampled_from(MODELS),
       precision=st.sampled_from(PRECISIONS), use_wrapping=st.booleans())
@settings(max_examples=40, deadline=None)
def test_build_deployments_matches_plan_path(data, model, precision,
                                             use_wrapping):
    """Closed-form deployments equal the plan-summing reference field for
    field, for random positive candidates on every layer of every model."""
    spec = get_network_spec(model)
    candidate = st.none() | st.tuples(st.integers(1, 4096),
                                      st.integers(1, 1024))
    assignment = {}
    for layer in spec:
        choice = data.draw(candidate, label=layer.name)
        if choice is not None and plan_patches(layer, choice) \
                <= MAX_PLAN_PATCHES:
            assignment[layer.name] = choice
    weight_bits, activation_bits = precision
    got = build_deployments(spec, assignment, weight_bits=weight_bits,
                            activation_bits=activation_bits,
                            use_wrapping=use_wrapping)
    want = plan_deployments(spec, assignment, weight_bits, activation_bits,
                            use_wrapping)
    assert len(got) == len(want)
    for dep, ref in zip(got, want):
        for field in fields(LayerDeployment):
            assert getattr(dep, field.name) == getattr(ref, field.name), \
                (dep.spec.name, field.name)
