//! Simulated outputs at the default seed, recorded from the simulator the
//! benchmark was written against (`perfbench --record --workload <name>
//! [--scale tiny]`). A change that only speeds up the simulator must
//! reproduce every one exactly; a change to the model must record them
//! again and say why they moved.

use crate::workloads::Size;

/// The seed every recorded value belongs to.
pub const DEFAULT_SEED: u64 = 1;

type Table = &'static [(&'static str, &'static str)];

pub fn table(workload: &str, size: Size) -> Table {
    match (workload, size) {
        ("p2p-verbs", Size::Full) => P2P_VERBS_FULL,
        ("p2p-verbs", Size::Tiny) => P2P_VERBS_TINY,
        ("npb-transports", Size::Full) => NPB_TRANSPORTS_FULL,
        ("npb-transports", Size::Tiny) => NPB_TRANSPORTS_TINY,
        ("fabric-incast", Size::Full) => FABRIC_INCAST_FULL,
        ("fabric-incast", Size::Tiny) => FABRIC_INCAST_TINY,
        ("spray-sr", Size::Full) => SPRAY_SR_FULL,
        ("spray-sr", Size::Tiny) => SPRAY_SR_TINY,
        _ => &[],
    }
}

const P2P_VERBS_FULL: Table = &[
    ("send_lat.16.bypass.lat_avg_us", "0.989633999999976"),
    ("send_lat.16.bypass.lat_p99_us", "0.989634"),
    ("send_lat.16.bypass.digest", "8293830902267394908"),
    ("send_lat.16.cord.lat_avg_us", "1.9339449999999636"),
    ("send_lat.16.cord.lat_p99_us", "1.933945"),
    ("send_lat.16.cord.digest", "5840301033155771273"),
    ("send_bw.16.bypass.bw_gbps", "1.3887124081938633"),
    ("send_bw.16.bypass.elapsed_us", "5530.302714"),
    ("send_bw.16.bypass.digest", "15884411750766478388"),
    ("send_bw.16.cord.bw_gbps", "0.40026788877007435"),
    ("send_bw.16.cord.elapsed_us", "19187.149945"),
    ("send_bw.16.cord.digest", "12667397659312368278"),
    ("write_bw.1m.zc.bw_gbps", "98.40475202879583"),
    ("write_bw.1m.zc.elapsed_us", "21822.966917"),
    ("write_bw.1m.zc.digest", "261495000321734627"),
    ("write_bw.1m.nozc.bw_gbps", "98.06808411370226"),
    ("write_bw.1m.nozc.elapsed_us", "21897.885203"),
    ("write_bw.1m.nozc.digest", "463355971981766263"),
];

const P2P_VERBS_TINY: Table = &[
    ("send_lat.16.bypass.lat_avg_us", "0.9896340000000005"),
    ("send_lat.16.bypass.lat_p99_us", "0.989634"),
    ("send_lat.16.bypass.digest", "11459778353865956647"),
    ("send_lat.16.cord.lat_avg_us", "1.9339449999999987"),
    ("send_lat.16.cord.lat_p99_us", "1.933945"),
    ("send_lat.16.cord.digest", "7809379219500184433"),
    ("send_bw.16.bypass.bw_gbps", "1.3836825131825488"),
    ("send_bw.16.bypass.elapsed_us", "18.501354"),
    ("send_bw.16.bypass.digest", "2257728039577832453"),
    ("send_bw.16.cord.bw_gbps", "0.3967396370560711"),
    ("send_bw.16.cord.elapsed_us", "64.525945"),
    ("send_bw.16.cord.digest", "10050132388472603715"),
    ("write_bw.1m.zc.bw_gbps", "97.81167572391492"),
    ("write_bw.1m.zc.elapsed_us", "343.051397"),
    ("write_bw.1m.zc.digest", "1225595478633324548"),
    ("write_bw.1m.nozc.bw_gbps", "80.27958334001944"),
    ("write_bw.1m.nozc.elapsed_us", "417.969683"),
    ("write_bw.1m.nozc.digest", "7542435873627915792"),
];

const NPB_TRANSPORTS_FULL: Table = &[
    ("npb.MG.A.16.bypass.runtime_us", "5641.922928"),
    ("npb.MG.A.16.bypass.gbit_per_rank", "0.31406029869821717"),
    ("npb.MG.A.16.bypass.msgs_per_rank_s", "13470.58458080376"),
    ("npb.MG.A.16.cord.runtime_us", "5740.468212"),
    ("npb.MG.A.16.cord.gbit_per_rank", "0.30866889852224483"),
    ("npb.MG.A.16.cord.msgs_per_rank_s", "13239.338185189834"),
    ("npb.MG.A.16.ipoib.runtime_us", "6398.220555"),
    ("npb.MG.A.16.ipoib.gbit_per_rank", "0.27693699908724073"),
    ("npb.MG.A.16.ipoib.msgs_per_rank_s", "11878.302622845424"),
    ("npb.CG.A.16.bypass.runtime_us", "53237.851855"),
    ("npb.CG.A.16.bypass.gbit_per_rank", "0.20219238051373475"),
    ("npb.CG.A.16.bypass.msgs_per_rank_s", "4583.205210168223"),
    ("npb.CG.A.16.cord.runtime_us", "52785.326753"),
    ("npb.CG.A.16.cord.gbit_per_rank", "0.2039257623689565"),
    ("npb.CG.A.16.cord.msgs_per_rank_s", "4622.496724170273"),
    ("npb.CG.A.16.ipoib.runtime_us", "56420.40994"),
    ("npb.CG.A.16.ipoib.gbit_per_rank", "0.19078712847792542"),
    ("npb.CG.A.16.ipoib.msgs_per_rank_s", "4324.676128009006"),
];

const NPB_TRANSPORTS_TINY: Table = &[
    ("npb.MG.S.4.bypass.runtime_us", "318.19088"),
    ("npb.MG.S.4.bypass.gbit_per_rank", "0.6675238460637213"),
    ("npb.MG.S.4.bypass.msgs_per_rank_s", "119425.17019972415"),
    ("npb.MG.S.4.cord.runtime_us", "388.028062"),
    ("npb.MG.S.4.cord.gbit_per_rank", "0.5473830910713875"),
    ("npb.MG.S.4.cord.msgs_per_rank_s", "97931.06149111454"),
    ("npb.MG.S.4.ipoib.runtime_us", "612.588371"),
    ("npb.MG.S.4.ipoib.gbit_per_rank", "0.3467254849341565"),
    ("npb.MG.S.4.ipoib.msgs_per_rank_s", "62031.866419481856"),
    ("npb.CG.S.4.bypass.runtime_us", "5330.209185"),
    ("npb.CG.S.4.bypass.gbit_per_rank", "0.10114724981473687"),
    ("npb.CG.S.4.bypass.msgs_per_rank_s", "7129.176113188511"),
    ("npb.CG.S.4.cord.runtime_us", "5359.823795"),
    ("npb.CG.S.4.cord.gbit_per_rank", "0.10058838137607096"),
    ("npb.CG.S.4.cord.msgs_per_rank_s", "7089.785308884393"),
    ("npb.CG.S.4.ipoib.runtime_us", "5586.751794"),
    ("npb.CG.S.4.ipoib.gbit_per_rank", "0.09650258681243287"),
    ("npb.CG.S.4.ipoib.msgs_per_rank_s", "6801.805664753326"),
];

const FABRIC_INCAST_FULL: Table = &[
    ("incast.virtual_ms", "117.245546859"),
    ("incast.completed", "38400"),
    ("incast.goodput_gbps", "85.89874046228572"),
    ("incast.net_drops", "0"),
    ("incast.retx_replays", "0"),
    ("incast.digest", "116005619978624190"),
];

const FABRIC_INCAST_TINY: Table = &[
    ("incast.virtual_ms", "0.07199033199999999"),
    ("incast.completed", "16"),
    ("incast.goodput_gbps", "58.29049378463764"),
    ("incast.net_drops", "0"),
    ("incast.retx_replays", "0"),
    ("incast.digest", "1418385265285908478"),
];

const SPRAY_SR_FULL: Table = &[
    ("spray-incast.virtual_ms", "35.394364026000005"),
    ("spray-incast.completed", "9600"),
    ("spray-incast.goodput_gbps", "71.13593560122922"),
    ("spray-incast.net_drops", "63648"),
    ("spray-incast.retx_replays", "12503"),
    ("spray-incast.digest", "13877025035144565767"),
];

const SPRAY_SR_TINY: Table = &[
    ("spray-incast.virtual_ms", "0.092913245"),
    ("spray-incast.completed", "16"),
    ("spray-incast.goodput_gbps", "45.16419591200371"),
    ("spray-incast.net_drops", "0"),
    ("spray-incast.retx_replays", "0"),
    ("spray-incast.digest", "6714895046550098004"),
];
