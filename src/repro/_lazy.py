"""PEP 562 lazy re-exports for the package ``__init__`` modules.

Each package declares which submodule each public name comes from, and
the submodule is imported on the first attribute access. Importing a
package therefore loads none of its submodules, and ``from
repro.harness import fault_sweep`` loads ``repro.harness.faults`` and
what it needs, nothing else: a CLI verb pays only for its own drivers.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


def lazy_exports(
    package: str,
    exports: Dict[str, Sequence[str]],
    unlisted: Optional[Dict[str, Sequence[str]]] = None,
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``'s re-exports.

    ``exports`` maps a relative submodule name (``".experiments"``) to the
    names the package re-exports from it; ``unlisted`` names resolve the
    same way but stay out of ``__all__``. A resolved name is stored in
    the package namespace, so later lookups never reach ``__getattr__``.
    """
    listed = [name for names in exports.values() for name in names]
    source = {
        name: module
        for table in (exports, unlisted or {})
        for module, names in table.items()
        for name in names
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = source.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # __import__ rather than importlib.import_module: only the builtin
        # import path is timed by ``python -X importtime``.
        __import__(package + module)
        value = getattr(sys.modules[package + module], name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(source))

    return listed, __getattr__, __dir__
