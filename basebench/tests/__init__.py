"""BaseBench's own tests (not part of tier-1; see test_basebench.py)."""
