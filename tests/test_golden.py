"""Golden digests: small runs of four scenarios reproduce recorded bytes.

Each config runs through ``cli.run``; the SHA-256 of every CSV and of
``report.txt`` must equal the digest recorded when the numbers were last
allowed to move.  A change that claims byte-identical output is checked by
this test; a change that moves bits on purpose records the new digests here
and names the moved artifacts in CHANGES.md.  The digests were recorded
with numpy 2.4 on OpenBLAS 0.3.31; another BLAS build may move the last
bits of the products and so the digests.
"""

import hashlib
import textwrap

import pytest

from martctrl.cli import EXIT_ASSERTION, EXIT_OK, parse_config, run

CONFIGS = {
    # spikes, probes, convexity pairs and a trajectory dump
    "example1": """\
        [run]
        scenario = example1
        steps = 40
        paths = 400
        dump_trajectories = 3

        [example1]
        spike_count = 5
        probe_points_per_dim = 3
        convexity_pairs = 50
        """,
    # LSMC adjoint, two policy-improvement sweeps and the duality check
    "example2": """\
        [run]
        scenario = example2
        steps = 20
        paths = 600

        [example2]
        sweeps = 2
        run_duality = true
        """,
    # first variation and zeta under the non-affine tanh drift
    "gateaux": """\
        [run]
        scenario = gateaux
        steps = 40
        paths = 1000

        [gateaux]
        drift_gain = 0.25
        """,
    # rate ladder, which reads p(T) only
    "rates": """\
        [run]
        scenario = rates
        steps = 80
        paths = 1000
        """,
    # the same ladder on a doubled p, which its assertions must catch
    "rates-fault": """\
        [run]
        scenario = rates
        steps = 80
        paths = 1000

        [rates]
        inject_fault = true
        """,
}

# Exit code of each config; the others exit EXIT_OK.
EXIT_CODES = {"rates-fault": EXIT_ASSERTION}

DIGESTS = {
    "example1": {
        "margins.csv": "eec72cb2a5570f6d6454ebeeb776eb1763143d8355b4d36710e0138877b5823a",
        "margins_summary.csv": "2f277201120532455e5673e1e2a5441db46afbbaae08b5cd6012ac7f5cac80aa",
        "probes.csv": "4cf23c40fa9e9a5cfefc8cbd21f668564b6f81820918b9e8f0f26e76e66beb33",
        "spike_gaps.csv": "984870e7f5b9c60d7aa264412088a9953de0bd5ca9585e27b376876ff029a9ae",
        "trajectories.csv": "21b560d2a330d833822fb850639d1a04141649888acf71d9e260df250e975141",
        "report.txt": "9d8493c36d17389f3356ec8b6e475b5bce44c63a351e65c135bcd0a75a47e564",
    },
    "example2": {
        "sweeps.csv": "284f068e53315d27f0ca5243ddf32597be37d01149fd745615247a7e712b4bbc",
        "report.txt": "25fc047263258b96bf13ddcb6e6b5148d117a48b30abc39915d7de1901a81718",
    },
    "gateaux": {
        "gateaux.csv": "e3c1f582dd051842fff7ff39ca97f150562e888e50d029821e28188a56c1240d",
        "report.txt": "9deeb2269c347e85768824e1fd6610dffbb48edd50906593d598239a035f0cb5",
    },
    "rates": {
        "rates.csv": "3e563dc59acd4418cdb22952dea001ce2d64776baf701090f8b47eb651fc0722",
        "report.txt": "09361d363b2f9a7d923153380f169069d1c95b36385bc37dff157805455e48e5",
    },
    "rates-fault": {
        "rates.csv": "5d88f227d39629f53d2e2ce207c85bd780c3c53cb25df7e591a5162ecd8fec2f",
        "report.txt": "c163ccc9da486b32a5a8d837cb17cce80c57050521dada7044dc45937cc2ef76",
    },
}


def artifact_digests(out_dir):
    """SHA-256 of every CSV and of report.txt, by file name."""
    files = sorted(out_dir.glob("*.csv")) + [out_dir / "report.txt"]
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in files}


@pytest.mark.parametrize("scenario", sorted(CONFIGS))
def test_artifacts_match_recorded_digests(tmp_path, scenario):
    config_path = tmp_path / "run.ini"
    config_path.write_text(textwrap.dedent(CONFIGS[scenario]),
                           encoding="utf-8")
    out_dir = tmp_path / "out"
    code = run(parse_config(config_path), output_dir=out_dir, verbosity=0)
    assert code == EXIT_CODES.get(scenario, EXIT_OK)
    assert artifact_digests(out_dir) == DIGESTS[scenario]
