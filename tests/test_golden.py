"""Golden digests: small runs of every scenario reproduce recorded bytes.

Each config runs through ``cli.run``; the SHA-256 of every CSV and of
``report.txt`` must equal the digest recorded when the numbers were last
allowed to move.  A change that claims byte-identical output is checked by
this test; a change that moves bits on purpose records the new digests here
and names the moved artifacts in CHANGES.md.  The digests were recorded
with numpy 2.4 on OpenBLAS 0.3.31; another BLAS build may move the last
bits of the products and so the digests.  numpy's seeding is pinned too:
the sampler reproduces numpy's SeedSequence/PCG64 seeding of each path's
substream itself, so after a numpy upgrade run
tests/test_martingale.py::test_path_seeds_reproduce_numpy_seeding first;
if it fails, the digests here fail with it.
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
    # the same quotients against a doubled p, which both rows must fail
    "gateaux-fault": """\
        [run]
        scenario = gateaux
        steps = 40
        paths = 1000

        [gateaux]
        drift_gain = 0.25
        inject_fault = true
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
    # Hamiltonian margins over a probe grid at sampled times and paths
    "pmp-check": """\
        [run]
        scenario = pmp-check
        steps = 40
        paths = 200

        [pmp-check]
        sample_times = 3
        sample_paths = 10
        points_per_dim = 5
        """,
    # the Hamiltonian convexity pairs
    "sufficiency": """\
        [run]
        scenario = sufficiency
        steps = 40
        paths = 400

        [sufficiency]
        pairs = 200
        """,
    # the same pairs on a concave running cost, which they must catch
    "sufficiency-fault": """\
        [run]
        scenario = sufficiency
        steps = 40
        paths = 400

        [sufficiency]
        pairs = 200
        inject_fault = true
        """,
    # the quadrature of the martingale isometry
    "isometry": """\
        [run]
        scenario = isometry
        steps = 40
        paths = 2000
        """,
    # finite differences of every packaged problem's derivatives
    "derivative-check": """\
        [run]
        scenario = derivative-check
        """,
    # the same differences against a perturbed derivative
    "derivative-check-fault": """\
        [run]
        scenario = derivative-check

        [derivative-check]
        inject_fault = true
        """,
}

# Exit code of each config; the others exit EXIT_OK.
EXIT_CODES = {"gateaux-fault": EXIT_ASSERTION,
              "rates-fault": EXIT_ASSERTION,
              "sufficiency-fault": EXIT_ASSERTION,
              "derivative-check-fault": EXIT_ASSERTION}

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
    "gateaux-fault": {
        "gateaux.csv": "53faaf835e965a3ab4bf4948f33647742b63b630817ac8edfd4163e72e423817",
        "report.txt": "55cbff8dc59c21d0e6cf8e1396eb822769d7721e01845b14a9bc2c4c5bca5286",
    },
    "rates": {
        "rates.csv": "3e563dc59acd4418cdb22952dea001ce2d64776baf701090f8b47eb651fc0722",
        "report.txt": "09361d363b2f9a7d923153380f169069d1c95b36385bc37dff157805455e48e5",
    },
    "rates-fault": {
        "rates.csv": "5d88f227d39629f53d2e2ce207c85bd780c3c53cb25df7e591a5162ecd8fec2f",
        "report.txt": "c163ccc9da486b32a5a8d837cb17cce80c57050521dada7044dc45937cc2ef76",
    },
    "pmp-check": {
        "margins.csv": "bae3b9e8266a703f6d974d2ed8468ad8275a8c733e0bfad1c5efb0a13ae2d3c9",
        "probes.csv": "86327d5a7937a9d0fc496147a9bcb7bc657533fa829b551e61fe947b6ad102f4",
        "report.txt": "8e5bc25432bbd0e017a34de2b80e29357f70857f00743b5e83dfacb361323a01",
    },
    "sufficiency": {
        "sufficiency.csv": "cc1a2b5a6d94ec865c2da342982ce469f5fa5e72fa68bd4e5909ef5868308375",
        "report.txt": "24e875f8a7ea1b027dfb6bee5223362d797e71144f21c3c1031d79818b3bbc47",
    },
    "sufficiency-fault": {
        "sufficiency.csv": "e9a2e7a8b7711c1172039cbd911f5401f641a15de011acadca0488424e41c72e",
        "report.txt": "7948a3600bbaf7a1bb1c94b6b28799f139cfbb78974300d30b5bb5e57e5a54f5",
    },
    "isometry": {
        "isometry.csv": "90535c0084d7bfb435d5ad9fb7c8cd1bc2aed51f2b6846c5bfbe761f689e2b2c",
        "report.txt": "7d52fb5fd5d0045f4ff82c8464544fd8b5ab45fffb1acda68961d6f020341ebc",
    },
    "derivative-check": {
        "derivatives.csv": "5fb5b8192b3f8d34cda4d8a47c900d79461261a1cd86454e2a29953147393d05",
        "report.txt": "302899b0eab1716cbb6546359490cb174174c68566a65cc7adb60cd033deb30a",
    },
    "derivative-check-fault": {
        "derivatives.csv": "1fd86ed997a30d49df6c102a35c9116ff1e206c6d139411b02f0fc0f4d1ee128",
        "report.txt": "984f4f06d3a11b0af73536be8671b8a7d614f85abce80635608cf5ee0292961c",
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
