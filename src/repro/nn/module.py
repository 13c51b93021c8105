"""Module and parameter base classes for the pure-numpy NN framework.

The framework mirrors the small subset of the PyTorch module API that the
FT-ClipAct methodology needs:

* named parameter trees (``state_dict`` / ``load_state_dict``) — the fault
  injector maps these parameters into a linear weight memory;
* train/eval modes (dropout, batch-norm);
* forward hooks — the activation profiler observes per-layer outputs
  without modifying model code;
* explicit ``backward`` methods per layer, chained by containers, so models
  can be *trained* from scratch (the paper starts from pre-trained networks,
  and with no network access we must produce those ourselves).

All computation is float32: the fault model flips bits of IEEE-754 float32
words, so parameters must be stored exactly as such.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterator, Mapping

import numpy as np

__all__ = ["Parameter", "Module", "HookHandle"]

# Hook ids are process-wide, not module state: adding and removing a hook
# leaves a module's pickle, and so every checkpoint CRC, unchanged.
_HOOK_IDS = itertools.count()


class Parameter:
    """A trainable tensor: float32 data plus an accumulated gradient."""

    def __init__(self, data: np.ndarray, requires_grad: bool = True):
        self.data = np.ascontiguousarray(data, dtype=np.float32)
        self.grad: "np.ndarray | None" = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def size(self) -> int:
        """Number of scalar elements."""
        return int(self.data.size)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to None (lazy re-allocation)."""
        self.grad = None

    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad``, allocating on first use."""
        if not self.requires_grad:
            return
        grad = np.asarray(grad, dtype=np.float32)
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match parameter "
                f"shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def __repr__(self) -> str:
        return f"Parameter(shape={self.data.shape}, requires_grad={self.requires_grad})"


class HookHandle:
    """Removal handle returned by :meth:`Module.register_forward_hook`."""

    def __init__(self, hooks: "dict[int, Callable]", hook_id: int):
        self._hooks = hooks
        self._hook_id = hook_id

    def remove(self) -> None:
        """Detach the hook; safe to call more than once."""
        self._hooks.pop(self._hook_id, None)


class Module:
    """Base class for all layers and models.

    Subclasses implement :meth:`forward` and, if trainable, :meth:`backward`.
    Assigning a :class:`Parameter` or :class:`Module` to an attribute
    registers it automatically, which makes ``state_dict`` and parameter
    iteration work without boilerplate.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_forward_hooks", {})
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #

    def __setattr__(self, name: str, value: Any) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._modules.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable persistent array (e.g. BN running mean)."""
        array = np.ascontiguousarray(value, dtype=np.float32)
        self._buffers[name] = array
        object.__setattr__(self, name, array)

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        """Overwrite a registered buffer, keeping registration consistent."""
        if name not in self._buffers:
            raise KeyError(f"no buffer named {name!r} on {type(self).__name__}")
        self.register_buffer(name, value)

    # ------------------------------------------------------------------ #
    # forward / backward
    # ------------------------------------------------------------------ #

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the layer output; subclasses must override."""
        raise NotImplementedError(f"{type(self).__name__} does not implement forward")

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad_output``; returns the gradient w.r.t. input.

        Only needed for training; inference-only wrappers may omit it.
        """
        raise NotImplementedError(f"{type(self).__name__} does not implement backward")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        output = self.forward(x)
        for hook in list(self._forward_hooks.values()):
            hook(self, x, output)
        return output

    def register_forward_hook(
        self, hook: Callable[["Module", np.ndarray, np.ndarray], None]
    ) -> HookHandle:
        """Call ``hook(module, input, output)`` after every forward pass."""
        hook_id = next(_HOOK_IDS)
        self._forward_hooks[hook_id] = hook
        return HookHandle(self._forward_hooks, hook_id)

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """Yield ``(qualified_name, module)`` pairs, self first."""
        yield prefix, self
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def modules(self) -> Iterator["Module"]:
        """Yield all modules in the tree, self first."""
        for _, module in self.named_modules():
            yield module

    def named_children(self) -> Iterator[tuple[str, "Module"]]:
        """Yield direct child ``(name, module)`` pairs."""
        yield from self._modules.items()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs over the whole tree."""
        for module_name, module in self.named_modules(prefix):
            for param_name, param in module._parameters.items():
                full = f"{module_name}.{param_name}" if module_name else param_name
                yield full, param

    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters in the tree."""
        for _, param in self.named_parameters():
            yield param

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        """Yield ``(qualified_name, buffer)`` pairs over the whole tree."""
        for module_name, module in self.named_modules(prefix):
            for buffer_name, buffer in module._buffers.items():
                full = f"{module_name}.{buffer_name}" if module_name else buffer_name
                yield full, buffer

    def num_parameters(self) -> int:
        """Total number of scalar parameters in the tree."""
        return sum(param.size for param in self.parameters())

    def zero_grad(self) -> None:
        """Clear gradients of every parameter in the tree."""
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------ #
    # train / eval
    # ------------------------------------------------------------------ #

    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively; returns self for chaining."""
        object.__setattr__(self, "training", bool(mode))
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        """Set inference mode recursively; returns self for chaining."""
        return self.train(False)

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat name→array mapping of all parameters and buffers (copies)."""
        state: dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buffer in self.named_buffers():
            state[name] = buffer.copy()
        return state

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        """Load parameters and buffers from ``state`` (strict name/shape match)."""
        own_params = dict(self.named_parameters())
        own_buffer_owners: dict[str, tuple[Module, str]] = {}
        for module_name, module in self.named_modules():
            for buffer_name in module._buffers:
                full = f"{module_name}.{buffer_name}" if module_name else buffer_name
                own_buffer_owners[full] = (module, buffer_name)

        expected = set(own_params) | set(own_buffer_owners)
        provided = set(state)
        if expected != provided:
            missing = sorted(expected - provided)
            unexpected = sorted(provided - expected)
            raise KeyError(
                f"state dict mismatch: missing={missing!r} unexpected={unexpected!r}"
            )
        for name, param in own_params.items():
            array = np.ascontiguousarray(state[name], dtype=np.float32)
            if array.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: expected {param.data.shape}, "
                    f"got {array.shape}"
                )
            param.data = array.copy()
        for name, (module, buffer_name) in own_buffer_owners.items():
            array = np.ascontiguousarray(state[name], dtype=np.float32)
            current = module._buffers[buffer_name]
            if array.shape != current.shape:
                raise ValueError(
                    f"shape mismatch for buffer {name!r}: expected {current.shape}, "
                    f"got {array.shape}"
                )
            module.register_buffer(buffer_name, array)

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #

    def extra_repr(self) -> str:
        """Layer-specific description appended inside ``repr``."""
        return ""

    def __repr__(self) -> str:
        header = f"{type(self).__name__}({self.extra_repr()})"
        children = [
            f"  ({name}): " + repr(child).replace("\n", "\n  ")
            for name, child in self._modules.items()
        ]
        if not children:
            return header
        return header[:-1] + "\n" + "\n".join(children) + "\n)"
