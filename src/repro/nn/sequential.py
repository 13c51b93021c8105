"""Sequential container with layer replacement and suffix re-execution.

Layer replacement (``replace``) is what the FT-ClipAct methodology uses to
swap unbounded activations for clipped ones without rebuilding the model.

``forward_collect`` / ``forward_from`` are the two halves of *suffix
re-execution* (see :mod:`repro.core.suffix`): one full forward pass records
the tensors flowing into selected children, and later passes restart from
such a recorded tensor, running only the suffix of the layer stack.  Both
run the children through ``__call__`` so per-layer forward hooks fire
exactly as in a plain forward; only the container's *own* hooks are
skipped (they observe the full input/output pair, which a partial pass
does not have).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.nn.module import Module

__all__ = ["Sequential"]


class Sequential(Module):
    """Run child modules in order; backward chains them in reverse."""

    def __init__(self, *layers: Module):
        super().__init__()
        for index, layer in enumerate(layers):
            if not isinstance(layer, Module):
                raise TypeError(
                    f"Sequential layers must be Modules, got "
                    f"{type(layer).__name__} at position {index}"
                )
            setattr(self, str(index), layer)

    def __len__(self) -> int:
        return len(self._modules)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __getitem__(self, index: int) -> Module:
        return self._modules[str(self._normalize_index(index))]

    def _normalize_index(self, index: int) -> int:
        length = len(self._modules)
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError(f"index {index} out of range for {length} layers")
        return index

    def append(self, layer: Module) -> "Sequential":
        """Add a layer at the end; returns self for chaining."""
        if not isinstance(layer, Module):
            raise TypeError(f"expected a Module, got {type(layer).__name__}")
        setattr(self, str(len(self._modules)), layer)
        return self

    def replace(self, index: int, layer: Module) -> Module:
        """Swap the layer at ``index`` for ``layer``; returns the old layer."""
        if not isinstance(layer, Module):
            raise TypeError(f"expected a Module, got {type(layer).__name__}")
        index = self._normalize_index(index)
        old = self._modules[str(index)]
        layer.train(self.training)
        setattr(self, str(index), layer)
        return old

    def index_of(self, layer: Module) -> int:
        """Position of ``layer`` (by identity); raises ValueError if absent."""
        for index, candidate in enumerate(self._modules.values()):
            if candidate is layer:
                return index
        raise ValueError("layer is not a direct child of this Sequential")

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = x
        for layer in self._modules.values():
            out = layer(out)
        return out

    def forward_collect(
        self, x: np.ndarray, indices: "Iterable[int]"
    ) -> "tuple[np.ndarray, dict[int, np.ndarray]]":
        """Forward pass that also returns the inputs of selected children.

        ``indices`` are child positions; the returned mapping holds, for
        each requested index, the exact tensor that flowed *into* that
        child.  Captured tensors are the live intermediate arrays (no
        copies) — callers must treat them as read-only.
        """
        wanted = {self._normalize_index(index) for index in indices}
        captured: dict[int, np.ndarray] = {}
        out = x
        for index, layer in enumerate(self._modules.values()):
            if index in wanted:
                captured[index] = out
            out = layer(out)
        return out, captured

    def forward_from(self, index: int, x: np.ndarray) -> np.ndarray:
        """Run only the children at positions ``index`` onward.

        ``x`` must be the tensor that would flow into child ``index`` in a
        full forward pass (e.g. one captured by :meth:`forward_collect`);
        the result is then bit-identical to the full forward, because the
        skipped prefix would have recomputed exactly ``x``.
        ``forward_from(0, x)`` is equivalent to ``forward(x)``; an
        ``index`` outside the children raises :class:`IndexError`.
        """
        index = self._normalize_index(index)
        out = x
        for layer in list(self._modules.values())[index:]:
            out = layer(out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output
        for layer in reversed(list(self._modules.values())):
            grad = layer.backward(grad)
        return grad
