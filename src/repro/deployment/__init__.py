"""Deployment study: the 5,760-server bed and its reliability (§II-B)."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "failures": ("FLEET_SIZE", "OBSERVATION_DAYS", "RANKING_SERVERS",
                 "DeploymentReport", "FailureRates", "MirroredTrafficStudy",
                 "expected_report"),
    "fleet": ("BurnInResult", "Fleet"),
})
