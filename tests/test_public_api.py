"""The names tin exports are documented."""

import tin


def test_every_exported_name_has_a_docstring():
    undocumented = [name for name in tin.__all__ if name != "__version__"
                    and not (getattr(tin, name).__doc__ or "").strip()]
    assert undocumented == []
