"""Tests for the RQ1(b) corpus generator and runner."""

from repro.corpus.generator import (
    CorpusConfig,
    KIND_DETECTABLE,
    KIND_INVISIBLE,
    TESTS_PER_PACKAGE,
    generate_corpus,
)
from repro.corpus.runner import run_corpus, run_package


def _small_config(**overrides):
    defaults = dict(n_packages=20, n_sites=10, seed=9)
    defaults.update(overrides)
    return CorpusConfig(**defaults)


class TestGenerator:
    def test_deterministic_for_seed(self):
        sites_a, pkgs_a = generate_corpus(_small_config())
        sites_b, pkgs_b = generate_corpus(_small_config())
        assert [s.label for s in sites_a] == [s.label for s in sites_b]
        assert [
            [(t.name, t.site.label if t.site else None, t.gc_after)
             for t in p.tests] for p in pkgs_a
        ] == [
            [(t.name, t.site.label if t.site else None, t.gc_after)
             for t in p.tests] for p in pkgs_b
        ]

    def test_site_kind_split(self):
        sites, _ = generate_corpus(_small_config())
        kinds = [s.kind for s in sites]
        assert kinds.count(KIND_DETECTABLE) == 5
        assert kinds.count(KIND_INVISIBLE) == 5

    def test_site_labels_unique(self):
        sites, _ = generate_corpus(_small_config())
        labels = [s.label for s in sites]
        assert len(set(labels)) == len(labels)

    def test_package_count(self):
        _, pkgs = generate_corpus(_small_config(n_packages=7))
        assert len(pkgs) == 7

    def test_tests_per_package_bounds(self):
        _, pkgs = generate_corpus(_small_config())
        lo, hi = TESTS_PER_PACKAGE
        assert all(lo <= len(p.tests) <= hi for p in pkgs)


class TestRunner:
    def test_goleak_superset_of_golf(self):
        """By design every GOLF report corresponds to a goleak leak."""
        result = run_corpus(_small_config(n_packages=30))
        assert result.golf_total <= result.goleak_total
        assert set(result.golf_by_site) <= set(result.goleak_by_site)
        for site, count in result.golf_by_site.items():
            assert count <= result.goleak_by_site[site]

    def test_invisible_sites_never_reported_by_golf(self):
        sites, pkgs = generate_corpus(_small_config(n_packages=30))
        result = run_corpus(_small_config(n_packages=30))
        invisible = {s.label for s in sites if s.kind == KIND_INVISIBLE}
        assert not (set(result.golf_by_site) & invisible)

    def test_ratio_curve_sorted_and_bounded(self):
        result = run_corpus(_small_config(n_packages=30))
        curve = result.ratio_curve()
        assert curve == sorted(curve, reverse=True)
        assert all(0.0 < r <= 1.0 for r in curve)
        assert 0.0 <= result.area_under_curve() <= 1.0
        assert 0.0 <= result.fully_found_fraction() <= 1.0

    def test_single_package_tallies(self):
        sites, pkgs = generate_corpus(_small_config())
        leaky = next(p for p in pkgs if p.leaky_tests())
        result = run_package(leaky, seed=1)
        assert result.status in ("main-exited", "timeout")
        assert sum(result.goleak_by_site.values()) >= len(leaky.leaky_tests())

    def test_clean_package_reports_nothing(self):
        from repro.corpus.generator import PackageSpec, TestSpec
        pkg = PackageSpec("clean", [TestSpec("Test0", None, True),
                                    TestSpec("Test1", None, False)])
        result = run_package(pkg, seed=1)
        assert result.goleak_by_site == {}
        assert result.golf_by_site == {}

    def test_headline_shape_matches_paper(self):
        """Scaled-down run must land near the paper's ratios: GOLF at
        ~50% of dedup reports and between them on individual reports."""
        result = run_corpus(CorpusConfig(n_packages=80, n_sites=30, seed=4))
        dedup_ratio = result.golf_dedup / result.goleak_dedup
        individual_ratio = result.golf_total / result.goleak_total
        assert 0.35 <= dedup_ratio <= 0.65      # paper: 0.50
        assert 0.45 <= individual_ratio <= 0.75  # paper: 0.60
        assert individual_ratio > dedup_ratio - 0.05
