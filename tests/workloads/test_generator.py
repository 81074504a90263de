"""Tests for the synthetic workload generator."""

import hashlib

import pytest

from repro.common.rng import DeterministicRng
from repro.cpu.isa import Compute, Exit, Ifetch, Load, Store
from repro.cpu.program import TraceProgram
from repro.cpu.tracing import format_op
from repro.os.kernel import Kernel
from repro.workloads.generator import (
    CODE_BASE,
    DATA_BASE,
    KERNEL_BASE,
    LIB_BASE,
    WorkloadBuilder,
    _profile_ops,
)
from repro.workloads.parsec import _thread_program, build_parsec_workload
from repro.workloads.profiles import (
    PARSEC_PROFILES,
    SPEC_PROFILES,
    parsec_profile,
    spec_profile,
)

from tests.conftest import tiny_config


@pytest.fixture
def kernel():
    return Kernel(tiny_config())


def collect_ops(program, limit=100_000):
    ops = []
    for op in program.start():
        ops.append(op)
        if len(ops) > limit:
            raise AssertionError("program did not terminate")
    return ops


def instructions_of(ops):
    total = 0
    for op in ops:
        if isinstance(op, Compute):
            total += op.instructions
        elif not isinstance(op, Exit):
            total += 1
    return total


def test_program_retires_requested_instructions(kernel):
    builder = WorkloadBuilder(kernel)
    _, task = builder.build_process(
        spec_profile("namd"), instance=0, instructions=5_000
    )
    ops = collect_ops(task.program)
    retired = instructions_of(ops)
    assert 5_000 <= retired <= 5_010  # may overshoot by one burst
    assert isinstance(ops[-1], Exit)


def test_program_is_deterministic(kernel):
    builder_a = WorkloadBuilder(Kernel(tiny_config()), seed=42)
    builder_b = WorkloadBuilder(Kernel(tiny_config()), seed=42)
    _, ta = builder_a.build_process(spec_profile("astar"), 0, 2_000)
    _, tb = builder_b.build_process(spec_profile("astar"), 0, 2_000)
    ops_a = [(type(o).__name__, getattr(o, "vaddr", None)) for o in collect_ops(ta.program)]
    ops_b = [(type(o).__name__, getattr(o, "vaddr", None)) for o in collect_ops(tb.program)]
    assert ops_a == ops_b


def test_address_regions_respected(kernel):
    builder = WorkloadBuilder(kernel)
    profile = spec_profile("gobmk")
    _, task = builder.build_process(profile, 0, 5_000)
    for op in collect_ops(task.program):
        if isinstance(op, (Load, Store)):
            assert DATA_BASE <= op.vaddr < DATA_BASE + profile.data_lines * 64
        elif isinstance(op, Ifetch):
            assert op.vaddr >= CODE_BASE


def test_all_regions_mapped(kernel):
    builder = WorkloadBuilder(kernel)
    process, task = builder.build_process(spec_profile("wrf"), 0, 3_000)
    aspace = process.address_space
    for op in collect_ops(task.program):
        if hasattr(op, "vaddr"):
            aspace.translate(op.vaddr)  # must not page-fault


def test_ifetch_mix_touches_lib_and_kernel(kernel):
    builder = WorkloadBuilder(kernel)
    _, task = builder.build_process(spec_profile("perlbench"), 0, 30_000)
    regions = {"code": 0, "lib": 0, "kernel": 0}
    for op in collect_ops(task.program):
        if isinstance(op, Ifetch):
            if op.vaddr >= KERNEL_BASE:
                regions["kernel"] += 1
            elif op.vaddr >= LIB_BASE:
                regions["lib"] += 1
            else:
                regions["code"] += 1
    assert all(count > 0 for count in regions.values())
    assert regions["code"] > regions["lib"]


def test_same_benchmark_instances_share_text(kernel):
    builder = WorkloadBuilder(kernel)
    pa, _ = builder.build_process(spec_profile("h264ref"), 0, 100)
    pb, _ = builder.build_process(spec_profile("h264ref"), 1, 100)
    assert pa.address_space.shares_page_with(pb.address_space, CODE_BASE)


def test_different_benchmarks_do_not_share_text(kernel):
    builder = WorkloadBuilder(kernel)
    pa, _ = builder.build_process(spec_profile("h264ref"), 0, 100)
    pb, _ = builder.build_process(spec_profile("astar"), 1, 100)
    assert not pa.address_space.shares_page_with(pb.address_space, CODE_BASE)


def test_all_processes_share_libc_and_kernel(kernel):
    builder = WorkloadBuilder(kernel)
    pa, _ = builder.build_process(spec_profile("namd"), 0, 100)
    pb, _ = builder.build_process(spec_profile("gromacs"), 1, 100)
    assert pa.address_space.shares_page_with(pb.address_space, LIB_BASE)
    assert pa.address_space.shares_page_with(pb.address_space, KERNEL_BASE)


def test_private_data_not_shared(kernel):
    builder = WorkloadBuilder(kernel)
    pa, _ = builder.build_process(spec_profile("namd"), 0, 100)
    pb, _ = builder.build_process(spec_profile("namd"), 1, 100)
    assert not pa.address_space.shares_page_with(pb.address_space, DATA_BASE)


def test_streaming_profile_advances_through_working_set(kernel):
    builder = WorkloadBuilder(kernel)
    profile = spec_profile("lbm")
    _, task = builder.build_process(profile, 0, 60_000)
    data_lines = set()
    for op in collect_ops(task.program):
        if isinstance(op, (Load, Store)):
            data_lines.add((op.vaddr - DATA_BASE) // 64)
    # the stream must cover far more lines than the hot set alone
    hot = int(profile.data_lines * profile.hot_set_fraction)
    assert len(data_lines) > 3 * hot


#: sha256 of each profile's op stream (``format_op`` lines joined by
#: newlines) for 30k instructions from ``DeterministicRng(0xBEEF)``
#: forked as ``stream-<name>``.  Recorded before the generator's hot loop
#: was rewritten; a change here changes every experiment's op stream.
PINNED_STREAM_SHA256 = {
    "specrand": "70722529036e44bbad6ed41a69bca6d3d8946b597a1a092b1fed2ff705b222f3",
    "lbm": "02578307099eeae61b669890b8e5649f3764bee340d951c63e2365ff14820289",
    "leslie3d": "af915d84ae30f8bc4c4c99f66ab1c90af4b5604d0ba9be770d67f458cc06c120",
    "gobmk": "14e9d8d460834f6c96d1808083db5f882fee80ab66484a44bdca42b7e332cd7d",
    "libquantum": "96e96c69b61420bf0a7db29dd359710394e58300472f39151ab7b2a51f3a3415",
    "wrf": "422b3af4b7ac61517d5b24f6a80391d0a45563b1fc96229bc33363daebb94e74",
    "calculix": "306351d18ccb6bf094bf153171453068e461181a7f444c3adb88fb991d578aca",
    "sjeng": "b40aef85237ea8cc323649256b1580fff8f4a952478b4ad983d2f5898a4e5505",
    "perlbench": "d512c07929f64bc8f313570768dd6d08b2e3f6257ab0066111030246cc77b41d",
    "astar": "35c03c9240937aa42018589f128c65653d9ef895f45b2dc03a3587385997962f",
    "h264ref": "2ad7af257b7ffa3c10a9f2e1505709f86a7e0bf81f24d90f24c8d9cab34a782f",
    "milc": "2c69e006161564f7050687d3c020925a3cdcf1e3cb1c28b961cb36ab27b8471a",
    "sphinx3": "a62b7c7551c734c2f0c1632afece1fb686c79f03f2f2590c5d68ba7923a01e57",
    "namd": "a23ef2aa6518316e4aa97278a2b4c189aac88deb1a9a40258e4de9bc25666475",
    "gromacs": "0719687980bc11265f32dd471fc98f8334169d627669b395a506443bd29f7558",
    "zeusmp": "5b013cd08e32379b8e866d9bad7ddb76fa7c5e43c8de520d27eb13c736177c32",
    "cactus": "6be98f64c0b5894bc6efdf8d29bf917d253a2c34564f43cc541ce00a3840d5be",
    "fluidanimate": "db9c34366480291c08798f7f6725216277c29ae7b06340cd83a03e4d5d83ee09",
    "raytrace": "7e434d31be3a9a14444b3001f3645293d127dc92a70926d75d83cb37b50d552f",
    "blackscholes": "5c9abb9254aeb7a0b7fc8bae4761c6386776ea25c33964aab3f31b848c8618e2",
    "x264": "680c200c87563626c8580c69b650bdc245431dc64d154fa722d15e2d574032ba",
    "swaptions": "e85df71cfe94a152123d441c4730a70f5d9a6c12eb5b8884a801519d32f8f5a9",
    "facesim": "e3db7ebd2fb956295c171c27592c93765db04e8ce55632e1c403d367cf79af4a",
}


def test_profile_op_streams_are_pinned():
    profiles = {**SPEC_PROFILES, **PARSEC_PROFILES}
    assert sorted(profiles) == sorted(PINNED_STREAM_SHA256)
    for name, profile in profiles.items():
        rng = DeterministicRng(0xBEEF).fork(f"stream-{name}")
        text = "\n".join(
            format_op(op) for op in _profile_ops(profile, 30_000, rng, 64)
        )
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == PINNED_STREAM_SHA256[name], name


def stream_sha256(ops):
    text = "\n".join(format_op(op) for op in ops)
    return hashlib.sha256(text.encode()).hexdigest()


#: sha256 of each PARSEC row's two thread streams (``format_op`` lines
#: joined by newlines, ``Exit`` included) for 30k instructions per thread
#: from ``DeterministicRng(0xFACE)`` forked as ``t<id>``, the streams
#: ``build_parsec_workload`` runs.  Recorded before the thread generator's
#: hot loop was rewritten; a change here changes every PARSEC experiment.
PINNED_THREAD_STREAM_SHA256 = {
    ("fluidanimate", 0): "9645dd97b20636ae4e053b0ed3087ba7cb57ba7860fab5cbacab8fe0221f3c20",
    ("fluidanimate", 1): "b74257dea3a719be6ec24e83f2a2faf60dc3b023aaa59978e0083c79147d191b",
    ("raytrace", 0): "ac91cefbc6b8380b6468bcfa8554997f6432270dffbe1b07cf531f94ef0c1eca",
    ("raytrace", 1): "67ebf57aa204277aa9fb05539dfd0f53032e9cbbc586baaa2d8312195b359ce4",
    ("blackscholes", 0): "b7874500bdb0f65150214f5fc1af278adc245bc53d55cffd8e895cb66f5e3073",
    ("blackscholes", 1): "04772fe4128b9f6b411d98f304928d9019113df35b4e413f9d2175a01f941eca",
    ("x264", 0): "9b27eab5a4b9f1a19e55d1cbd9c44c4005879138128c475469d52e3553c279a9",
    ("x264", 1): "92b271d9cbf728297dff9170bc26cd3ce011a9c87437590154fc6b6468720256",
    ("swaptions", 0): "f8a47cb2189a6548741e7efc5bf6b82e2245e924daf7a40cd12182644d1f5116",
    ("swaptions", 1): "12eb578f3660a5f4092201f4d4a0dc5139ba8eb4b5cebcf70db331133c33b1ef",
    ("facesim", 0): "ce90c7bc9da95fc76c0db175d1ba02a0903a96f67165bc078d0dc53bcb64f797",
    ("facesim", 1): "d6d7035e793bdb95070c63b5cb0abd92180c33fb2918204a0f7f38e920859e52",
}


def test_parsec_thread_streams_are_pinned():
    assert sorted({bench for bench, _ in PINNED_THREAD_STREAM_SHA256}) == sorted(
        PARSEC_PROFILES
    )
    for (bench, thread_id), digest in PINNED_THREAD_STREAM_SHA256.items():
        rng = DeterministicRng(0xFACE).fork(f"t{thread_id}")
        program = _thread_program(parsec_profile(bench), thread_id, 30_000, 64, rng)
        assert stream_sha256(program.start()) == digest, (bench, thread_id)


def spec_and_parsec_programs():
    """A SPEC process's program and a PARSEC thread's, as experiments
    build them."""
    _, task = WorkloadBuilder(Kernel(tiny_config())).build_process(
        spec_profile("namd"), 0, 3_000
    )
    t0, _ = build_parsec_workload(Kernel(tiny_config(num_cores=2)), "swaptions", 3_000)
    return task.program, t0.program


def test_restarted_programs_replay_the_identical_stream():
    for program in spec_and_parsec_programs():
        first = [format_op(op) for op in program.start()]
        second = [format_op(op) for op in program.start()]
        assert first == second, program.name
        assert first[-1] == "X"


def test_streams_intern_one_op_per_address():
    for program in spec_and_parsec_programs():
        assert isinstance(program, TraceProgram)
        ops = list(program.start())
        interned = {}
        for op in ops:
            assert interned.setdefault(format_op(op), op) is op
        # a few hundred distinct ops behind ~1.5k op slots
        assert len(interned) * 2 < len(ops), program.name
