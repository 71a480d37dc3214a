"""The benchmark's tracer wraps package functions by name; each must exist."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class _CheckingTracer:
    def __init__(self):
        self.hooks = []

    def install(self, module, hooks):
        for attr, _name, _attrs in hooks:
            assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
            self.hooks.append(attr)


def test_every_traced_hook_names_a_callable(monkeypatch):
    # A pruned name would make `perfbench/run.py --trace 1` raise in install.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    tracer = _CheckingTracer()
    layers.install(tracer)
    assert tracer.hooks
