import pytest

from mvfusion import network, selfcheck
from mvfusion.views import FeatureMap


def test_perturbed_fast_paths_fail_their_oracle_checks(monkeypatch):
    conv, project = selfcheck.conv2d_raw, selfcheck.project_features

    def nudged_project(*args):
        feats, validity = project(*args)
        return FeatureMap(feats.view, feats.data + 1e-9, feats.geometry), validity

    monkeypatch.setattr(selfcheck, "conv2d_raw", lambda *args, **kw: conv(*args, **kw) + 1e-9)
    monkeypatch.setattr(selfcheck, "project_features", nudged_project)
    with pytest.raises(selfcheck.CheckFailure, match="conv_oracle: max abs err"):
        selfcheck.check_conv_oracle()
    with pytest.raises(selfcheck.CheckFailure, match="projection_oracle: trial 0 features differ"):
        selfcheck.check_projection_oracle()


def test_perturbed_occupied_pixel_kernel_fails_the_conv_oracle_check(monkeypatch):
    occupied = network._conv2d_occupied

    def nudged(pixels, cells, grid, kernel, bias, activation, out, work):
        occupied(pixels, cells, grid, kernel, bias, activation, out, work)
        out += 1e-9  # the (h * w, cout) output rows the kernel wrote

    monkeypatch.setattr(network, "_conv2d_occupied", nudged)
    with pytest.raises(selfcheck.CheckFailure, match="conv_oracle: max abs err"):
        selfcheck.check_conv_oracle()
