"""Tests for the configuration doctor."""

import dataclasses

from repro.core import schemes
from repro.oram.config import BucketGeometry, OramConfig, override_levels, uniform_geometry
from repro.oram.recovery import RobustnessConfig
from repro.oram.validate import (
    ERROR,
    INFO,
    WARNING,
    diagnose,
    diagnose_robustness,
)


class TestDiagnose:
    def test_paper_schemes_have_no_errors(self):
        for cfg in schemes.main_schemes(24):
            errors = [f for f in diagnose(cfg) if f.severity == ERROR]
            assert not errors, (cfg.name, errors)

    def test_zero_sustain_flagged(self):
        cfg = OramConfig(levels=4,
                         geometry=uniform_geometry(4, 5, 0, overlap=0))
        codes = {f.code for f in diagnose(cfg) if f.severity == ERROR}
        assert "sustain-zero" in codes

    def test_extension_without_deadq_flagged(self):
        geom = override_levels(
            uniform_geometry(4, 5, 3, overlap=2),
            {3: BucketGeometry(5, 1, overlap=2, remote_extension=2)},
        )
        cfg = OramConfig(levels=4, geometry=geom)  # no deadq_levels!
        codes = {f.code for f in diagnose(cfg) if f.severity == ERROR}
        assert "extension-untracked" in codes

    def test_deadq_without_extension_warns(self):
        cfg = OramConfig(levels=4,
                         geometry=uniform_geometry(4, 5, 3, overlap=2),
                         deadq_levels=(3,))
        codes = {f.code for f in diagnose(cfg) if f.severity == WARNING}
        assert "deadq-unused" in codes

    def test_overfull_flagged(self):
        cfg = OramConfig(levels=4,
                         geometry=uniform_geometry(4, 5, 3, overlap=2),
                         n_real_blocks=15 * 8)  # every slot "real"
        codes = {f.code for f in diagnose(cfg) if f.severity == ERROR}
        assert "overfull" in codes or "zreal-overfull" in codes

    def test_stash_headroom_warns(self):
        cfg = OramConfig(levels=8,
                         geometry=uniform_geometry(8, 5, 3, overlap=2),
                         stash_capacity=50,
                         background_evict_threshold=45)
        codes = {f.code for f in diagnose(cfg)}
        assert "stash-headroom" in codes

    def test_metadata_overflow_warns(self):
        cfg = dataclasses.replace(
            schemes.ab_scheme(24), max_remote_slots=64,
            geometry=schemes.ab_scheme(24).geometry,
        )
        codes = {f.code for f in diagnose(cfg)}
        assert "metadata-overflow" in codes

    def test_info_findings_present_for_ab(self):
        infos = [f for f in diagnose(schemes.ab_scheme(24))
                 if f.severity == INFO]
        assert any(f.code == "deadq-pressure" for f in infos)


class TestDiagnoseRobustness:
    def _codes(self, findings):
        return {f.code for f in findings}

    def test_no_policy_no_faults_is_clean(self):
        assert diagnose_robustness(None) == []

    def test_faults_without_policy_is_error(self):
        findings = diagnose_robustness(None, faults_enabled=True)
        assert self._codes(findings) == {"faults-unguarded"}
        assert findings[0].severity == ERROR

    def test_zero_retries_with_quarantine_warns(self):
        findings = diagnose_robustness(
            RobustnessConfig(integrity=True, retry_budget=0),
            faults_enabled=True,
        )
        assert "retry-zero" in self._codes(findings)

    def test_faults_without_integrity_warns(self):
        findings = diagnose_robustness(
            RobustnessConfig(integrity=False), faults_enabled=True,
        )
        assert "faults-without-integrity" in self._codes(findings)

    def test_long_integrity_run_without_checkpoint_warns(self):
        findings = diagnose_robustness(
            RobustnessConfig(integrity=True),
            n_requests=50_000, checkpoint_every=0,
        )
        assert "integrity-no-checkpoint" in self._codes(findings)

    def test_checkpointed_long_run_is_clean(self):
        findings = diagnose_robustness(
            RobustnessConfig(integrity=True),
            n_requests=50_000, checkpoint_every=1000,
        )
        assert "integrity-no-checkpoint" not in self._codes(findings)

