//! Golden JSON for hand-built `ScenarioReport`s: pins key order, the
//! splicing of the fabric and chaos counter blocks into the top-level
//! object, and the omission of every absent optional field (the SLO pair,
//! recovery times, the DCQCN series, default routing and retransmission
//! mode, an unset buffer, and an empty collective list).

use cord_net::Routing;
use cord_nic::RetxMode;
use cord_workload::stats::{
    ChaosCounters, FabricCounters, ScenarioReport, TelemetryReport, TenantRecovery, TenantReport,
    TenantSeries,
};
use cord_workload::CollectiveReport;

fn tenant(name: &str, slo: Option<(f64, f64)>) -> TenantReport {
    TenantReport {
        tenant: name.to_string(),
        issued: 10,
        completed: 9,
        dropped: 1,
        p50_us: 2.5,
        p99_us: 7.0,
        p999_us: 7.25,
        mean_us: 3.0,
        max_us: 8.5,
        bytes_moved: 4096,
        active_ms: 0.125,
        goodput_gbps: 1.5,
        slo_us: slo.map(|s| s.0),
        slo_attained: slo.map(|s| s.1),
    }
}

fn series(name: &str) -> TenantSeries {
    TenantSeries {
        tenant: name.to_string(),
        inflight: vec![2, 0],
        goodput_gbps: vec![0.5, 0.0],
    }
}

fn bare(scenario: &str) -> ScenarioReport {
    ScenarioReport {
        scenario: scenario.to_string(),
        machine: "L".to_string(),
        nodes: 4,
        seed: 7,
        topology: "full-mesh".to_string(),
        cc: "none".to_string(),
        fabric: None,
        chaos: None,
        recovery: None,
        telemetry: None,
        connections: 2,
        qps_created: 4,
        elapsed_ms: 1.0,
        total_completed: 9,
        total_dropped: 1,
        total_goodput_gbps: 0.75,
        tenants: vec![tenant("t0", None)],
        collectives: Vec::new(),
    }
}

#[test]
fn every_optional_block_present() {
    let report = ScenarioReport {
        topology: "fat-tree/4".to_string(),
        cc: "dcqcn".to_string(),
        fabric: Some(FabricCounters {
            pfc: true,
            rc_retx: true,
            routing: Routing::Spray,
            retx_mode: RetxMode::Sr,
            buffer_bytes: Some(65536),
            net_drops: 3,
            net_pauses: 2,
            net_pause_ms: 0.5,
            retx_replays: 4,
            retx_exhausted: 0,
        }),
        chaos: Some(ChaosCounters {
            faults: 1,
            faults_skipped: 0,
            chaos_reroutes: 12,
            chaos_dead_frames: 5,
            chaos_pfc_deadlocks: 0,
        }),
        recovery: Some(vec![
            TenantRecovery {
                tenant: "t0".to_string(),
                recovered: true,
                recovery_us: Some(42.5),
            },
            TenantRecovery {
                tenant: "slo".to_string(),
                recovered: false,
                recovery_us: None,
            },
        ]),
        telemetry: Some(TelemetryReport {
            cadence_us: 10.0,
            t_us: vec![10.0, 20.0],
            max_port_queued: vec![1024, 0],
            paused_ports: vec![1, 0],
            min_dcqcn_gbps: Some(vec![12.5, 25.0]),
            tenants: vec![series("t0"), series("slo")],
        }),
        tenants: vec![tenant("t0", None), tenant("slo", Some((50.0, 0.75)))],
        collectives: vec![CollectiveReport {
            collective: "ar".to_string(),
            op: "allreduce/ring".to_string(),
            ranks: 4,
            iters: 2,
            bytes_per_rank: 1024,
            completion_us: vec![3.5, 4.5],
            mean_completion_us: 4.0,
            max_completion_us: 4.5,
            algbw_gbps: 2.048,
            busbw_gbps: 3.072,
            straggler_skew: 1.125,
        }],
        ..bare("everything")
    };
    let expected = r#"{
  "scenario": "everything",
  "machine": "L",
  "nodes": 4,
  "seed": 7,
  "topology": "fat-tree/4",
  "cc": "dcqcn",
  "pfc": true,
  "rc_retx": true,
  "routing": "spray",
  "retx_mode": "sr",
  "buffer_bytes": 65536,
  "net_drops": 3,
  "net_pauses": 2,
  "net_pause_ms": 0.5,
  "retx_replays": 4,
  "retx_exhausted": 0,
  "faults": 1,
  "faults_skipped": 0,
  "chaos_reroutes": 12,
  "chaos_dead_frames": 5,
  "chaos_pfc_deadlocks": 0,
  "recovery": [
    {
      "tenant": "t0",
      "recovered": true,
      "recovery_us": 42.5
    },
    {
      "tenant": "slo",
      "recovered": false
    }
  ],
  "telemetry": {
    "cadence_us": 10.0,
    "t_us": [
      10.0,
      20.0
    ],
    "max_port_queued": [
      1024,
      0
    ],
    "paused_ports": [
      1,
      0
    ],
    "min_dcqcn_gbps": [
      12.5,
      25.0
    ],
    "tenants": [
      {
        "tenant": "t0",
        "inflight": [
          2,
          0
        ],
        "goodput_gbps": [
          0.5,
          0.0
        ]
      },
      {
        "tenant": "slo",
        "inflight": [
          2,
          0
        ],
        "goodput_gbps": [
          0.5,
          0.0
        ]
      }
    ]
  },
  "connections": 2,
  "qps_created": 4,
  "elapsed_ms": 1.0,
  "total_completed": 9,
  "total_dropped": 1,
  "total_goodput_gbps": 0.75,
  "tenants": [
    {
      "tenant": "t0",
      "issued": 10,
      "completed": 9,
      "dropped": 1,
      "p50_us": 2.5,
      "p99_us": 7.0,
      "p999_us": 7.25,
      "mean_us": 3.0,
      "max_us": 8.5,
      "bytes_moved": 4096,
      "active_ms": 0.125,
      "goodput_gbps": 1.5
    },
    {
      "tenant": "slo",
      "issued": 10,
      "completed": 9,
      "dropped": 1,
      "p50_us": 2.5,
      "p99_us": 7.0,
      "p999_us": 7.25,
      "mean_us": 3.0,
      "max_us": 8.5,
      "bytes_moved": 4096,
      "active_ms": 0.125,
      "goodput_gbps": 1.5,
      "slo_us": 50.0,
      "slo_attained": 0.75
    }
  ],
  "collectives": [
    {
      "collective": "ar",
      "op": "allreduce/ring",
      "ranks": 4,
      "iters": 2,
      "bytes_per_rank": 1024,
      "completion_us": [
        3.5,
        4.5
      ],
      "mean_completion_us": 4.0,
      "max_completion_us": 4.5,
      "algbw_gbps": 2.048,
      "busbw_gbps": 3.072,
      "straggler_skew": 1.125
    }
  ]
}"#;
    assert_eq!(serde_json::to_string_pretty(&report).unwrap(), expected);
}

#[test]
fn every_optional_block_absent() {
    let report = ScenarioReport {
        fabric: Some(FabricCounters {
            pfc: false,
            rc_retx: false,
            routing: Routing::Ecmp,
            retx_mode: RetxMode::Gbn,
            buffer_bytes: None,
            net_drops: 0,
            net_pauses: 0,
            net_pause_ms: 0.0,
            retx_replays: 0,
            retx_exhausted: 0,
        }),
        telemetry: Some(TelemetryReport {
            cadence_us: 5.0,
            t_us: vec![5.0],
            max_port_queued: vec![0],
            paused_ports: vec![0],
            min_dcqcn_gbps: None,
            tenants: Vec::new(),
        }),
        ..bare("defaults")
    };
    let expected = r#"{
  "scenario": "defaults",
  "machine": "L",
  "nodes": 4,
  "seed": 7,
  "topology": "full-mesh",
  "cc": "none",
  "pfc": false,
  "rc_retx": false,
  "net_drops": 0,
  "net_pauses": 0,
  "net_pause_ms": 0.0,
  "retx_replays": 0,
  "retx_exhausted": 0,
  "telemetry": {
    "cadence_us": 5.0,
    "t_us": [
      5.0
    ],
    "max_port_queued": [
      0
    ],
    "paused_ports": [
      0
    ],
    "tenants": []
  },
  "connections": 2,
  "qps_created": 4,
  "elapsed_ms": 1.0,
  "total_completed": 9,
  "total_dropped": 1,
  "total_goodput_gbps": 0.75,
  "tenants": [
    {
      "tenant": "t0",
      "issued": 10,
      "completed": 9,
      "dropped": 1,
      "p50_us": 2.5,
      "p99_us": 7.0,
      "p999_us": 7.25,
      "mean_us": 3.0,
      "max_us": 8.5,
      "bytes_moved": 4096,
      "active_ms": 0.125,
      "goodput_gbps": 1.5
    }
  ]
}"#;
    assert_eq!(serde_json::to_string_pretty(&report).unwrap(), expected);
}

#[test]
fn no_fabric_block_emits_no_fabric_keys() {
    let json = serde_json::to_string(&bare("plain")).unwrap();
    assert_eq!(
        json,
        "{\"scenario\":\"plain\",\"machine\":\"L\",\"nodes\":4,\"seed\":7,\
         \"topology\":\"full-mesh\",\"cc\":\"none\",\"connections\":2,\
         \"qps_created\":4,\"elapsed_ms\":1.0,\"total_completed\":9,\
         \"total_dropped\":1,\"total_goodput_gbps\":0.75,\"tenants\":[{\
         \"tenant\":\"t0\",\"issued\":10,\"completed\":9,\"dropped\":1,\
         \"p50_us\":2.5,\"p99_us\":7.0,\"p999_us\":7.25,\"mean_us\":3.0,\
         \"max_us\":8.5,\"bytes_moved\":4096,\"active_ms\":0.125,\
         \"goodput_gbps\":1.5}]}"
    );
}
