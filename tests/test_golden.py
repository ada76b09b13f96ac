"""Byte identity of the documented CLI outputs and of the matrix dump files.

Each documented invocation is rendered in json, csv and pretty, and the
sha256 of its stdout is compared with the digest recorded before the
library was refactored; likewise the two ``--dump`` files of the matrix
example, and of the benchmark's matrix rungs with the ``--dump`` files of
the largest, and of its ``spectrum``, ``det`` and ``greens`` sweep
configurations.  A refactor that changes any byte of these outputs fails
here.

The matrix digests cover float eigenvalues from LAPACK (the zero mode
prints as a value near 1e-17), so they are tied to the numpy/BLAS build
the digests were recorded with.  The json outputs are also checked from a
fresh ``python -m tateop`` process.

argparse's own texts are pinned too: the stdout of every ``--help`` and
the stderr of malformed command lines, at 80 columns.  The CLI reads a
well-formed command line itself and hands every other to argparse, so
these are what that hand-over must keep.  They are tied to the Python
(3.11) whose argparse wrote them.
"""

import contextlib
import hashlib
import io

import pytest

from tateop.cli import main

STDOUT_SHA256 = {
    ("greens --p 3 --m 2", "json"): "6f23172909451b410aa3d8ca1936f814ffb46278cca91a5e9f2c82c7ca2dcc12",
    ("greens --p 3 --m 2", "csv"): "212c9f7caffacfa469363e256645ccf0a5e278cd4307d28b2adcee22c7d6253a",
    ("greens --p 3 --m 2", "pretty"): "c77fa844d17eed3a50fb4fc46e27c2d92a750bb1509b93a9a5b19cd392a6f690",
    ("greens --p 2 --m 5", "json"): "aee4d3f84b123fa031222c98115e7072928b42d83abe45eb062646be5ec1ef97",
    ("greens --p 2 --m 5", "csv"): "16b49a0be6766c3ccbed56ea51c19497a890dfe457ec2002fbdf37fb0755d8e2",
    ("greens --p 2 --m 5", "pretty"): "fffc2742704ad8d55bcead58c7e76da08ea3e94f892188357cb10c3a32d45b99",
    ("spectrum --p 3 --m 2 --max-conductor 2", "json"): "7932119e17a4ff1934493bc090932e18da769e658852bf952b7f2c75cd3a1f87",
    ("spectrum --p 3 --m 2 --max-conductor 2", "csv"): "4baea9c22ded20d42f1596c2325f7242b8abef981c303691fc5a31890900a573",
    ("spectrum --p 3 --m 2 --max-conductor 2", "pretty"): "39ecbb2ce998b13ee41ed1b433786bb8eca0898f3b36b8ac25cb97ad977adb69",
    # At p = 2, m = 1 the gap is lambda_2 = 2: conductor 1 has no character.
    ("spectrum --p 2 --m 1 --max-conductor 3", "json"): "d388eca49e6a1d5e0ba3390da7c9b4cf128500974aa4b8e6df668eeaee03e7f5",
    ("spectrum --p 2 --m 1 --max-conductor 3", "csv"): "80254afbbd54718590d4aa53cd06001f721debda5db9b1dc7c31d308cbc03fe6",
    ("spectrum --p 2 --m 1 --max-conductor 3", "pretty"): "c92b3b7a9556b83b9c50a09d4506ea6690f2c9eeb57e64fa0479db3187fd26f5",
    ("det --p 3 --m 2", "json"): "812ca184d4c86f3c4e3c483245227765fb1799d8fa8ca88a69dc6613a37bc6da",
    ("det --p 3 --m 2", "csv"): "22e79a5252d99539d1736f16a5c29668d2686ed83e7ca0c632ce8d3bab4e7d7f",
    ("det --p 3 --m 2", "pretty"): "4c504e84f87acb63f2a4419b0224ab92f26b33bd6ebac2e7c454c9aa5db0ed80",
    ("matrix --p 3 --m 2 --level 1", "json"): "c138ca104406fa16f08a540f07beedf61a4e2370354a99e86225b141a0cb035e",
    ("matrix --p 3 --m 2 --level 1", "csv"): "24a9fa886824f1b6eacd368b027f2cf51c8d8ccfc94cb35118baf6160ceb646d",
    ("matrix --p 3 --m 2 --level 1", "pretty"): "b4a04fe00beba62c895daa1aa3e526ef78665eb5a474d21dee18f4f70c2c3bb3",
    ("correlator --p 3 --m 2 --x1 4 --x2 1", "json"): "b88e184b6242efc2b9d9c3203982bdd2b8b1427a2fd48246d3c8a2c616b97411",
    ("correlator --p 3 --m 2 --x1 4 --x2 1", "csv"): "72862e42dc2cd15f83af4f1403e6993156fb23e9dd45fb8173656e5e6d84552f",
    ("correlator --p 3 --m 2 --x1 4 --x2 1", "pretty"): "5e9335844d7cff454ff8c5a859289a170e7349669a537efee9f4d4f952098dca",
    ("tree --p 2 --m 5 --depth 1", "json"): "f883ce4b48a300975cc445b9014127e04ae28d200a9cb08e830266d10551d158",
    ("tree --p 2 --m 5 --depth 1", "csv"): "f883ce4b48a300975cc445b9014127e04ae28d200a9cb08e830266d10551d158",
    ("tree --p 2 --m 5 --depth 1", "pretty"): "f883ce4b48a300975cc445b9014127e04ae28d200a9cb08e830266d10551d158",
}

DUMP_SHA256 = {
    ".csv": "23986654bbaa97b2a23513a7c109a6f3ea08a89e305d5fe4669a943ff011460b",
    ".basis.json": "a63863023f03b58b662fd39274bfda4132109a1635d5572a71a7d6e4739c7842",
}

# The benchmark's matrix rungs (dimensions 128, 54 and 200), json stdout.
LADDER_STDOUT_SHA256 = {
    "matrix --p 2 --m 1 --level 8": "fce502f40eb90dd54a7ecbb76986f4691e3d1ee49a2e29a64fa9c4ede39d9837",
    "matrix --p 3 --m 3 --level 3": "4d09bb129cfe8668f84f9744b08acc91fe12ea3cc6639265b59cb967ad560b7a",
    "matrix --p 5 --m 2 --level 3": "42c593906f71054b90230ea931d7766174e97481445a748ff0872c846472945a",
}

LADDER_DUMP_SHA256 = {
    ".csv": "21a7edaba3d84c9babf27643276c502eda613168e870c8faa30d0c5d6d9263b9",
    ".basis.json": "4998a5dca5360d99fc10670081caef96336f67aeb9d21a2df58ced0589a2c0f8",
}

# The benchmark's spectrum and greens sweeps, det at m = 100 for each of its
# primes and at m = 3000 and 1000, and greens at the README's cost example,
# json stdout.  They print the float radial integrals, the determinant
# factors of the spectral layer and the exact height identity at every
# sampled point.  The last four run every reader of the shell couplings at
# a large m: the height action reads their closed-form sums, the angular
# circulant check streams them and their closed-form sum, and the float
# radial sums read them as floats; the correlator's kernel match compares
# the two-point value at delta 1, which is the kernel (both of its forms
# compared, the case form computing its one weight), with kernel_H exactly.
SWEEP_STDOUT_SHA256 = {
    # The spectral gap 2, as at --max-conductor 3.
    "spectrum --p 2 --m 1 --max-conductor 12": "3f934ce261ccb89a0628670b6f2f2bcecf5a86b4dbb8b78c3e04a4148d6077e1",
    "spectrum --p 3 --m 2 --max-conductor 7": "3402f92649ada078cc5485047e3da6dc7830779adbaefed356735b29020a7e76",
    "spectrum --p 5 --m 3 --max-conductor 5": "7d1c9d4d8457b6bb121ff73d46f7d16c93e507cbb24eb6a7c1f8010bb2163f76",
    "spectrum --p 7 --m 2 --max-conductor 4": "ff0edcea60de262a4d2ca5e277a0a5b01aae6c2ca6deba2c12968e69ddd625c6",
    "det --p 2 --m 100": "a287477eea1ba41639b1fe71c4df1ab72082502ce39805e039a5087825a4cd82",
    "det --p 3 --m 100": "1d27bb87bafef7b8112522f53e9c35ce49d1eba8f24ed3e9de5eadb1007e884c",
    "det --p 5 --m 100": "8817902eaa59b268b0712b43188c819d0dbde99f489d2a4cabafa87f0076cabc",
    "det --p 7 --m 100": "17997bc04e80b6b4e0db63620e80dc447f9e98933e05c50041f11c65b0175b21",
    "det --p 2 --m 3000": "abd2e1479e5d08248e3267f2ebbaabba41f1478a4c0187dc866662ca6659dee3",
    "det --p 7 --m 1000": "65ca7ef879d0cdf6f024349909969676b122056af17c4e6efd9482b6d55c609b",
    "greens --p 3 --m 2 --max-vdist 60": "9c82be53bcb7c17468ce96aacfc8e8831cee107df83e0f00a348b7c85ee1b1cd",
    "greens --p 2 --m 5 --max-vdist 100": "c73a9e3e7ea0d7cce854eb32f6d599b54c1a3deba8b28118856a40c6a431c778",
    "greens --p 7 --m 4 --max-vdist 40": "9c369d89dc6a584a6de6dd886e204b91bd73702faf1597c9b789b83c285ff4de",
    "greens --p 5 --m 3 --max-vdist 50": "fe540a19b23d33504dc17737f6380183ef95ab2f5ddd6a309554925af2387ad5",
    "greens --p 2 --m 5 --max-vdist 600": "24380c2fa8753e7773c380f79bb66284f15351558ddaad5bf571334249bd8204",
    "det --p 101 --m 2000": "a4d0ff75338f4cb4bac49d77251858e073c60653c789b3cfa3781929fc2a4c34",
    "spectrum --p 3 --m 300 --max-conductor 5": "73f37849073f1e3e966664a015d4e0a6bbe131a6c6684548871f44e43c604bc3",
    "greens --p 5 --m 40 --max-vdist 20": "ba90143541bb763be1070452f6f0974f0889fc3ec9c3720bb5a716bc86f46ff2",
    "correlator --p 7 --m 50 --x1 7/2 --x2 3": "10675cb8bcaa1bab1a3c035adeb5ae3a1096594cf5b330c67084d410437cf578",
    # Every radial level to 300 at a large m, and the height identity at a
    # large p.
    "spectrum --p 2 --m 20000 --max-conductor 300": "27c315a922053898fdc5e005deb154e2c40892c6b23188675c1524497bee2d07",
    "greens --p 101 --m 3 --max-vdist 100": "e2c8800312fae9081648167bc977b0aa44dc8dd28bf16c1417b8223ba4bddb50",
}

# Matrices of dimension 96 and 972: both float checks over every conductor
# level up to 6.  The eigen-solve's bits at dimension 972 depend on the BLAS
# thread count, so these are taken from a fresh process on one thread.
ONE_THREAD_MATRIX_STDOUT_SHA256 = {
    "matrix --p 2 --m 3 --level 6": "801db94460981f4ab01eefe46d31f55285d5a18bdba5db3c2280c11ebb55c30a",
    "matrix --p 3 --m 2 --level 6": "88311ddddf962422b679a533b57fe30039ec086c255f1931a6156eb4c826bfb1",
}

HELP_STDOUT_SHA256 = {
    "--help": "235f05a8ef2519bd5aab8357fcb230a0bed1a043c8a2cfcd361cca038c4800fe",
    "greens --help": "07d49bd96e736a3256a4c80237a8dc0692e31a56735c2545c37e4d17a7ede95f",
    "spectrum --help": "b575a7630cb2684bbc9a821cea89c0ce21c72726d95629f3b4e407788e789fd7",
    "det --help": "12a80bb1d9aa77ad250f5990be3bb72095c82f7e644c098260e559f15fc92253",
    "matrix --help": "6fc8125b6d300dd5b788655fbd9d6ab3263f9fe9dbc51413e5ed681cd0f145ac",
    "correlator --help": "cfc69d54f6ef5d601ecb9350fa46028d645adc09ff474b56ee2b8544dcf95a86",
    "tree --help": "1be0135f6b0e6b3f903ef5295d9021715253fa8f82cff6a2313afa225a2e7590",
}

USAGE_STDERR_SHA256 = {
    "greens --p 3 --m 2 --bogus 1": "7cc3360deda9c80e137db216143d3cbd430d977801e20e49b7d1dda54b8c2a1a",
    "greens --m 2": "6c76f6455eafb6709b14b123db2458cb72ddb847dca19d34be1872ea6c902a4c",
    "det --p 1.5 --m 2": "2e6311f017d98fc35e31b939831b052e40e67ee2597210c585dc8d1c195e5156",
    "det --p 3 --m 2 --format xml": "db2e8bcfd54e55b28a7e3dc9a21282fe8cdf8fde3ce9e290f906021774079963",
    "correlator --p 3 --m 2 --x 4 --x2 1": "2fc683f56dde9eb7e1e12975247ff9f15a75d17b13d9cb9f2b15d89466a30c03",
    "correlator --p 3 --m 2 --x1 4 --x2 1 --delta": "df638a19473573405b0df4d5a2bfd818ac4ce55d2940a9bf07f2c94d2ba7eed3",
    # No subcommand at all, options before it, and an unknown one.
    "": "1b94cd38018a9db8f38f3832cb7213ba9077c67ae6a0ed3873e527d7ca94bbf3",
    "--p 3 --m 2": "a1df9e70e55a3e3e2b96db0d6358b541f8dc9fe7ee7054efe9a8f219709a7f5e",
    "nope --p 3": "35348300f94ae2bca4e24fcc040575a8d4537f27104b79cbc0561104ca2a1458",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command,fmt", sorted(STDOUT_SHA256), ids=lambda x: x)
def test_documented_stdout_is_byte_identical(command, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split() + ["--format", fmt])
    assert code == 0
    assert _sha256(out.getvalue().encode()) == STDOUT_SHA256[(command, fmt)]


@pytest.mark.parametrize("command", sorted(c for c, fmt in STDOUT_SHA256 if fmt == "json"))
def test_documented_stdout_is_byte_identical_from_a_fresh_process(command, run_python):
    # In-process tests run after numpy is loaded; only a fresh interpreter
    # takes the first, deferred numpy import inside the matrix code.
    proc = run_python("-m", "tateop", *command.split(), "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert _sha256(proc.stdout) == STDOUT_SHA256[(command, "json")]


def test_matrix_dump_files_are_byte_identical(tmp_path):
    prefix = tmp_path / "mx"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["matrix", "--p", "3", "--m", "2", "--level", "1", "--dump", str(prefix)])
    assert code == 0
    for suffix, digest in DUMP_SHA256.items():
        assert _sha256((tmp_path / ("mx" + suffix)).read_bytes()) == digest, suffix


@pytest.mark.parametrize("command", sorted(LADDER_STDOUT_SHA256))
def test_ladder_stdout_is_byte_identical(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split() + ["--format", "json"])
    assert code == 0
    assert _sha256(out.getvalue().encode()) == LADDER_STDOUT_SHA256[command]


def test_ladder_dump_files_are_byte_identical(tmp_path):
    prefix = tmp_path / "mx"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["matrix", "--p", "5", "--m", "2", "--level", "3", "--dump", str(prefix)])
    assert code == 0
    assert _sha256(out.getvalue().encode()) == LADDER_STDOUT_SHA256["matrix --p 5 --m 2 --level 3"]
    for suffix, digest in LADDER_DUMP_SHA256.items():
        assert _sha256((tmp_path / ("mx" + suffix)).read_bytes()) == digest, suffix


@pytest.mark.parametrize("command", sorted(SWEEP_STDOUT_SHA256))
def test_sweep_stdout_is_byte_identical(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split() + ["--format", "json"])
    assert code == 0
    assert _sha256(out.getvalue().encode()) == SWEEP_STDOUT_SHA256[command]


@pytest.mark.parametrize("command", sorted(ONE_THREAD_MATRIX_STDOUT_SHA256))
def test_large_matrix_stdout_is_byte_identical_on_one_blas_thread(command, run_python):
    one_thread = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = run_python("-m", "tateop", *command.split(), "--format", "json", env=one_thread)
    assert proc.returncode == 0, proc.stderr
    assert _sha256(proc.stdout) == ONE_THREAD_MATRIX_STDOUT_SHA256[command]


def _run_at_80_columns(monkeypatch, command):
    # argparse wraps its texts to the terminal width, which COLUMNS sets.
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.split())
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", sorted(HELP_STDOUT_SHA256))
def test_help_is_byte_identical(monkeypatch, command):
    code, out, err = _run_at_80_columns(monkeypatch, command)
    assert (code, err) == (0, "")
    assert _sha256(out.encode()) == HELP_STDOUT_SHA256[command]


@pytest.mark.parametrize("command", sorted(USAGE_STDERR_SHA256), ids=lambda c: c or "(empty)")
def test_argparse_usage_errors_are_byte_identical(monkeypatch, command):
    code, out, err = _run_at_80_columns(monkeypatch, command)
    assert (code, out) == (2, "")
    assert _sha256(err.encode()) == USAGE_STDERR_SHA256[command]


def test_a_repeated_option_takes_its_last_value(monkeypatch):
    code, out, err = _run_at_80_columns(monkeypatch, "det --p 3 --m 2 --format csv --format pretty")
    assert (code, err) == (0, "")
    assert _sha256(out.encode()) == STDOUT_SHA256[("det --p 3 --m 2", "pretty")]
