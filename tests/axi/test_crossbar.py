"""Integration tests for the AXI crossbar."""

from types import SimpleNamespace

import pytest

from repro.axi.crossbar import AddressRange, Crossbar, extend_id, split_id
from repro.axi.interface import AxiInterface
from repro.axi.manager import Manager
from repro.axi.subordinate import Subordinate
from repro.axi.traffic import RandomTraffic, read_spec, write_spec
from repro.axi.types import Resp
from repro.sim.kernel import Simulator

SUB0 = AddressRange(0x0000_0000, 0x10000)
SUB1 = AddressRange(0x8000_0000, 0x10000)


def fabric(n_managers=2, sub_kwargs=None):
    sim = Simulator()
    mgr_buses = [AxiInterface(f"m{i}") for i in range(n_managers)]
    managers = [Manager(f"mgr{i}", bus) for i, bus in enumerate(mgr_buses)]
    sub_buses = [AxiInterface("s0"), AxiInterface("s1")]
    kwargs = sub_kwargs or {}
    subs = [
        Subordinate("sub0", sub_buses[0], **kwargs),
        Subordinate("sub1", sub_buses[1], **kwargs),
    ]
    xbar = Crossbar(
        "xbar", mgr_buses, [(sub_buses[0], SUB0), (sub_buses[1], SUB1)]
    )
    for component in (*managers, xbar, *subs):
        sim.add(component)
    return SimpleNamespace(
        sim=sim, managers=managers, subs=subs, xbar=xbar, buses=mgr_buses
    )


def drain(env, timeout=20_000):
    done = env.sim.run_until(
        lambda s: all(m.idle for m in env.managers), timeout=timeout
    )
    assert done is not None, "fabric did not drain"


def test_id_extension_roundtrip():
    ext = extend_id(3, 0x1234)
    assert split_id(ext) == (3, 0x1234)


def test_id_extension_range_checked():
    with pytest.raises(ValueError):
        extend_id(0, 1 << 16)


def test_address_decode_routes_to_correct_subordinate():
    env = fabric()
    env.managers[0].submit(write_spec(0, 0x100, beats=1, data=[0xA]))
    env.managers[0].submit(write_spec(1, 0x8000_0100, beats=1, data=[0xB]))
    drain(env)
    assert env.subs[0].memory.read_word(0x100, 8) == 0xA
    assert env.subs[1].memory.read_word(0x8000_0100, 8) == 0xB


def test_responses_routed_back_with_original_ids():
    env = fabric()
    env.managers[0].submit(read_spec(7, 0x100))
    env.managers[1].submit(read_spec(7, 0x8000_0000))
    drain(env)
    for manager in env.managers:
        assert manager.surprises == []
        assert manager.completed[0].txn_id == 7


def test_contention_both_managers_same_subordinate():
    env = fabric(sub_kwargs={"b_latency": 2})
    env.managers[0].submit_all(
        [write_spec(0, 0x100 * i, beats=2) for i in range(1, 8)]
    )
    env.managers[1].submit_all(
        [write_spec(1, 0x100 * i + 0x80, beats=2) for i in range(1, 8)]
    )
    drain(env)
    assert len(env.managers[0].completed) == 7
    assert len(env.managers[1].completed) == 7
    assert all(m.surprises == [] for m in env.managers)


def test_write_bursts_not_interleaved_at_subordinate():
    env = fabric()
    env.managers[0].submit(write_spec(0, 0x0, beats=8, data=list(range(8))))
    env.managers[1].submit(
        write_spec(0, 0x100, beats=8, data=list(range(100, 108)))
    )
    drain(env)
    assert env.subs[0].memory.read_word(0x0, 8) == 0
    assert env.subs[0].memory.read_word(0x38, 8) == 7
    assert env.subs[0].memory.read_word(0x100, 8) == 100
    assert env.subs[0].memory.read_word(0x138, 8) == 107


def test_unmapped_write_gets_decerr():
    env = fabric()
    env.managers[0].submit(write_spec(0, 0x4000_0000, beats=2))
    drain(env)
    assert env.managers[0].completed[0].resp == Resp.DECERR
    assert env.xbar.decode_errors == 1


def test_unmapped_read_gets_decerr():
    env = fabric()
    env.managers[1].submit(read_spec(3, 0x4000_0000, beats=4))
    drain(env)
    txn = env.managers[1].completed[0]
    assert txn.resp == Resp.DECERR
    assert env.xbar.decode_errors == 1


def test_mapped_traffic_unaffected_by_decerr_neighbor():
    env = fabric()
    env.managers[0].submit(write_spec(0, 0x4000_0000, beats=2))  # unmapped
    env.managers[0].submit(write_spec(1, 0x100, beats=2, data=[5, 6]))
    drain(env)
    responses = {t.addr: t.resp for t in env.managers[0].completed}
    assert responses[0x4000_0000] == Resp.DECERR
    assert responses[0x100] == Resp.OKAY
    assert env.subs[0].memory.read_word(0x100, 8) == 5


def test_heavy_random_cross_traffic_drains():
    env = fabric(sub_kwargs={"b_latency": 2, "r_latency": 3})
    gen0 = RandomTraffic(ids=(0, 1), max_beats=8, addr_space=0x10000, seed=11)
    gen1 = RandomTraffic(ids=(0, 1), max_beats=8, addr_space=0x10000, seed=22)
    env.managers[0].submit_all(gen0.take(25))
    for spec in gen1.take(25):
        spec.addr += 0x8000_0000
        env.managers[1].submit(spec)
    drain(env, timeout=50_000)
    assert len(env.managers[0].completed) == 25
    assert len(env.managers[1].completed) == 25
    assert all(m.surprises == [] for m in env.managers)


def test_crossbar_requires_ports():
    with pytest.raises(ValueError):
        Crossbar("bad", [], [])


# ----------------------------------------------------------------------
# Two crossbar levels: a leaf crossbar behind one window of the top one
# ----------------------------------------------------------------------
LEAF_WINDOWS = [
    AddressRange(0x0_0000, 0x4000),
    AddressRange(0x10_0000, 0x4000),
    AddressRange(0x10_4000, 0x4000),
]


def two_level_fabric():
    """manager -> top xbar -> {sub0, leaf xbar -> {sub1, sub2}}."""
    sim = Simulator()
    mgr_bus = AxiInterface("mgr")
    manager = Manager("manager", mgr_bus)
    sub_buses = [AxiInterface(f"s{i}") for i in range(3)]
    subs = [
        Subordinate(f"sub{i}", bus, r_latency=i + 1, b_latency=i + 1)
        for i, bus in enumerate(sub_buses)
    ]
    leaf_in = AxiInterface("leaf_in")
    # The leaf window covers sub1 and sub2; the top level routes the
    # whole window at the leaf crossbar, which decodes the final hop.
    top = Crossbar(
        "top",
        [mgr_bus],
        [
            (sub_buses[0], LEAF_WINDOWS[0]),
            (leaf_in, AddressRange(0x10_0000, 0x8000)),
        ],
    )
    leaf = Crossbar(
        "leaf",
        [leaf_in],
        [(sub_buses[1], LEAF_WINDOWS[1]), (sub_buses[2], LEAF_WINDOWS[2])],
    )
    for component in (manager, top, leaf, *subs):
        sim.add(component)
    return SimpleNamespace(sim=sim, manager=manager, subs=subs)


def spread_over_windows(count, max_issue_delay=0):
    """Writes and reads of 1-4 beats over four IDs, round-robin across
    the three endpoint windows, each window seeing both directions."""
    specs = []
    for i in range(count):
        window = LEAF_WINDOWS[i % 3]
        make = write_spec if i % 2 == 0 else read_spec
        specs.append(
            make(
                i % 4,
                window.base + 0x100 * (i // 3),
                beats=1 + i % 4,
                issue_delay=i % (max_issue_delay + 1),
            )
        )
    return specs


def test_map_driven_traffic_through_two_crossbar_levels():
    fabric = two_level_fabric()
    specs = spread_over_windows(24, max_issue_delay=2)
    fabric.manager.submit_all(specs)
    assert fabric.sim.run_until(
        lambda s: fabric.manager.idle, timeout=30_000
    )
    assert len(fabric.manager.completed) == len(specs)
    assert fabric.manager.surprises == []
    # Every level decoded: all three endpoints saw work.
    touched = [
        sub.writes_done + sub.reads_done > 0 for sub in fabric.subs
    ]
    assert all(touched), touched


def test_two_level_fabric_with_reordering_endpoints():
    fabric = two_level_fabric()
    for sub in fabric.subs:
        sub.reorder_depth = 2
    specs = spread_over_windows(16)
    fabric.manager.submit_all(specs)
    assert fabric.sim.run_until(
        lambda s: fabric.manager.idle, timeout=30_000
    )
    assert len(fabric.manager.completed) == len(specs)
    assert fabric.manager.surprises == []
