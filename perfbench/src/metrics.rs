//! The metrics the benchmark reports, by name and unit. `BENCHMARK.json`
//! lists the same names; the self-test holds the two together.

/// Printed with `--trace 0`: what a user of the simulator sees.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Printed with `--trace 1`: one layer each, from the traced run.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("sim.polls", "count"),
    ("sim.timer_fires", "count"),
    ("sim.timer_inserts", "count"),
    ("sim.timer_scan_steps", "count"),
    ("sim.spawns", "count"),
    ("sim.wakers_created", "count"),
    ("sim.ns_per_event", "ns"),
    ("nic.polls", "count"),
    ("nic.timer_fires", "count"),
    ("switch.timer_fires", "count"),
    ("cpu.timer_fires", "count"),
    ("other.polls", "count"),
    ("other.timer_fires", "count"),
    ("setup.fabric_build_s", "s"),
    ("setup.connect_s", "s"),
    ("heap.allocs", "count"),
    ("heap.alloc_bytes", "B"),
    ("heap.alloc_bytes_per_payload_byte", "B/B"),
    ("heap.live_after_teardown_bytes", "B"),
    ("ipoib.tx_pkts", "count"),
    ("ipoib.rx_pkts", "count"),
    ("ipoib.wall_s", "s"),
    ("ipoib.host_us_per_pkt", "us"),
    ("mpi.msgs", "count"),
    ("mpi.bytes", "B"),
    ("mpi.wall_s.bypass", "s"),
    ("mpi.wall_s.cord", "s"),
    ("mpi.wall_s.ipoib", "s"),
    ("verbs.host_ns_per_msg.bypass", "ns"),
    ("verbs.host_ns_per_msg.cord", "ns"),
    ("kern.cord_host_ns_per_msg", "ns"),
    ("nic.host_ns_per_pkt", "ns"),
    ("copy.host_ns_per_byte", "ns/B"),
    ("net.drops", "count"),
    ("net.pauses", "count"),
    ("retx.replays", "count"),
    ("retx.exhausted", "count"),
    ("retx.replays_per_completed", "ratio"),
    ("workload.issued", "count"),
    ("workload.completed", "count"),
    ("host.calib_ns", "ns"),
    ("trace.overhead_s", "s"),
];
