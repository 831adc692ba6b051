import primecavity


def test_all_names_resolve_once_and_sorted():
    names = primecavity.__all__
    missing = [name for name in names if not hasattr(primecavity, name)]
    assert missing == [], f"__all__ lists names the package does not define: {missing}"
    assert len(set(names)) == len(names), "__all__ lists a name twice"
    assert names == sorted(names), "__all__ is not sorted"
