//! Golden mapping digests: every mapping the `cold` benchmark's compile
//! requests produce, pinned bit for bit.
//!
//! Each case maps serially (`threads: 1`) on the 6×6 prototype and records
//! `II:digest`, where the digest is a [`StableHasher`] over the placements,
//! the routes (every hop) and the island and tile DVFS levels, or
//! `IiExceeded` when the mapper rejects the kernel. The constants were
//! recorded before the router and commit prechecks learned to prune by
//! admissible lower bounds; a search speed-up that changes any of them is
//! not a pure speed-up. Regenerate a table only for a deliberate change of
//! mapping semantics, by running this file with `ICED_PRINT_DIGESTS=1
//! cargo test --release --test mapping_digest -- --nocapture` and pasting
//! the printed tables (the run itself still fails on every change).

use iced::arch::{CgraConfig, Dir, DvfsLevel};
use iced::dfg::Dfg;
use iced::fuzz::{generate, GenOptions, Rng};
use iced::kernels::{Kernel, UnrollFactor};
use iced::mapper::{map_with, MapError, MapperOptions, Mapping};
use iced_hash::StableHasher;

/// Fuzz kernels checked: the first `FUZZ_KERNELS` that the default
/// generator accepts from the stream seeded `0xC01D` (the inline kernels
/// `cold` compiles).
const FUZZ_KERNELS: usize = 64;

fn level_code(l: DvfsLevel) -> u8 {
    match l {
        DvfsLevel::PowerGated => 0,
        DvfsLevel::Rest => 1,
        DvfsLevel::Relax => 2,
        DvfsLevel::Normal => 3,
    }
}

fn dir_code(d: Dir) -> u8 {
    match d {
        Dir::North => 0,
        Dir::East => 1,
        Dir::South => 2,
        Dir::West => 3,
    }
}

fn mapping_digest(m: &Mapping) -> u64 {
    let mut h = StableHasher::new();
    h.write_str("placements");
    h.write_usize(m.placements().len());
    for p in m.placements() {
        h.write_usize(p.tile.index());
        h.write_u64(p.start);
        h.write_u32(p.rate);
    }
    h.write_str("routes");
    h.write_usize(m.routes().len());
    for r in m.routes() {
        h.write_usize(r.edge.index());
        h.write_u64(r.src_ready);
        h.write_u64(r.arrival);
        h.write_u64(r.consume_at);
        h.write_usize(r.hops.len());
        for hop in &r.hops {
            h.write_usize(hop.from.index());
            h.write_usize(hop.to.index());
            h.write_u8(dir_code(hop.dir));
            h.write_u64(hop.depart);
            h.write_u64(hop.arrive);
        }
    }
    let cfg = m.config();
    h.write_str("levels");
    for i in cfg.islands() {
        h.write_u8(level_code(m.island_level(i)));
    }
    for t in cfg.tiles() {
        h.write_u8(level_code(m.tile_level(t)));
    }
    h.finish()
}

fn case_digest(dfg: &Dfg, cfg: &CgraConfig, base: &MapperOptions) -> String {
    let opts = MapperOptions {
        threads: 1,
        ..base.clone()
    };
    match map_with(dfg, cfg, &opts) {
        Ok(m) => format!("{}:{:016x}", m.ii(), mapping_digest(&m)),
        Err(MapError::IiExceeded { .. }) => "IiExceeded".to_string(),
        Err(e) => panic!("{}: unexpected mapper error {e}", dfg.name()),
    }
}

/// Compares `got` against the golden table, reporting every mismatch at
/// once. With `ICED_PRINT_DIGESTS` set it first prints `got` as a table,
/// and still compares, so the print mode never reports a pass it did not
/// check.
fn check(table: &str, got: &[(String, String)], want: &[(&str, &str)]) {
    if std::env::var_os("ICED_PRINT_DIGESTS").is_some() {
        println!("const {table}: &[(&str, &str)] = &[");
        for (name, d) in got {
            println!("    (\"{name}\", \"{d}\"),");
        }
        println!("];");
    }
    assert_eq!(got.len(), want.len(), "{table}: case count");
    let bad: Vec<String> = got
        .iter()
        .zip(want)
        .filter(|((gn, gd), (wn, wd))| gn != wn || gd != wd)
        .map(|((gn, gd), (wn, wd))| format!("{gn}: got {gd}, want {wn} {wd}"))
        .collect();
    assert!(bad.is_empty(), "{table} changed:\n{}", bad.join("\n"));
}

#[test]
fn table1_mappings_match_golden_digests() {
    let cfg = CgraConfig::iced_prototype();
    let mut got = Vec::new();
    for (opt_name, base) in [
        ("baseline", MapperOptions::baseline()),
        ("default", MapperOptions::default()),
    ] {
        for k in Kernel::ALL {
            for uf in UnrollFactor::ALL {
                let name = format!("{}x{}/{opt_name}", k.name(), uf.factor());
                got.push((name, case_digest(&k.dfg(uf), &cfg, &base)));
            }
        }
    }
    check("TABLE1", &got, TABLE1);
}

#[test]
fn fuzz_mappings_match_golden_digests() {
    let cfg = CgraConfig::iced_prototype();
    let opts = GenOptions::default();
    let mut rng = Rng::new(0xC01D);
    let mut got = Vec::new();
    while got.len() < FUZZ_KERNELS {
        let seed = rng.next_u64();
        if let Ok(dfg) = generate(seed, &opts) {
            let name = format!("{seed:016x}");
            got.push((name, case_digest(&dfg, &cfg, &MapperOptions::default())));
        }
    }
    check("FUZZ", &got, FUZZ);
}

const TABLE1: &[(&str, &str)] = &[
    ("firx1/baseline", "4:17e3bff10cbc2291"),
    ("firx2/baseline", "4:d34a693f6afb0d29"),
    ("latnrmx1/baseline", "4:17e3bff10cbc2291"),
    ("latnrmx2/baseline", "4:a2ccd0216fe34995"),
    ("fftx1/baseline", "5:2a198604b7718ecb"),
    ("fftx2/baseline", "8:ded52480ec37efe0"),
    ("dtwx1/baseline", "4:fa40c7d6557a894f"),
    ("dtwx2/baseline", "6:c9716911c6176d3d"),
    ("spmvx1/baseline", "4:cf299fb2e12331ab"),
    ("spmvx2/baseline", "7:ea2bad00b6ed3fef"),
    ("convx1/baseline", "4:db8f8c80bbbfa746"),
    ("convx2/baseline", "4:c513da6e46a629cb"),
    ("relux1/baseline", "4:81b046b7273e041f"),
    ("relux2/baseline", "4:4dff0f78770409a9"),
    ("histogramx1/baseline", "4:4d88af83f2588820"),
    ("histogramx2/baseline", "4:639cd873df026e46"),
    ("mvtx1/baseline", "4:17ffad851648e1ac"),
    ("mvtx2/baseline", "4:07dcfa1e45a6c7f2"),
    ("gemmx1/baseline", "4:6d7750a32c10d1d7"),
    ("gemmx2/baseline", "7:0c7e864cfd226f74"),
    ("compressx1/baseline", "4:ad5d27231cb872c0"),
    ("compressx2/baseline", "7:8b92a4a5650dc06e"),
    ("aggregatex1/baseline", "5:49db03e60884d2b5"),
    ("aggregatex2/baseline", "7:1879220ba7e36a28"),
    ("combinex1/baseline", "4:431115df4306be7f"),
    ("combinex2/baseline", "7:317ddedb16be795b"),
    ("combrelux1/baseline", "4:db8154a19a5f7f4a"),
    ("combrelux2/baseline", "7:0e8b819d6c92256a"),
    ("poolingx1/baseline", "4:b1714b9c3b42e7b0"),
    ("poolingx2/baseline", "7:79df4824785139ab"),
    ("initx1/baseline", "4:2b8146d68947d29b"),
    ("initx2/baseline", "7:717331b4dbb44297"),
    ("decomposex1/baseline", "4:b4d07582a0d6c2ba"),
    ("decomposex2/baseline", "7:d2a74997777c8f87"),
    ("solver0x1/baseline", "8:790ad185e74b71f3"),
    ("solver0x2/baseline", "80:b4d180feffb808d9"),
    ("solver1x1/baseline", "36:9a886c56665f584e"),
    ("solver1x2/baseline", "70:f12f087ff4c1f0b1"),
    ("invertx1/baseline", "4:b26b7810bd19bc4b"),
    ("invertx2/baseline", "4:330b5d3396983c4d"),
    ("determinantx1/baseline", "7:a750c13efb95939a"),
    ("determinantx2/baseline", "13:26981e80e5c1932c"),
    ("firx1/default", "4:7880618b6cdf13e0"),
    ("firx2/default", "4:f0867cbd3391740e"),
    ("latnrmx1/default", "4:7880618b6cdf13e0"),
    ("latnrmx2/default", "4:bab67819ca9ee9b4"),
    ("fftx1/default", "5:fc2d7485f654c88c"),
    ("fftx2/default", "8:9b9c5f21d1c364f5"),
    ("dtwx1/default", "4:d6c737dff75eaf53"),
    ("dtwx2/default", "6:a63fe74c94cb939a"),
    ("spmvx1/default", "4:e984c365517690e5"),
    ("spmvx2/default", "7:a4903a58b17798a3"),
    ("convx1/default", "4:8d0a4c1e2ef212e3"),
    ("convx2/default", "4:b1ee95ac627e45ff"),
    ("relux1/default", "4:6923e803ea712d00"),
    ("relux2/default", "4:8e25df5e76e48331"),
    ("histogramx1/default", "4:b5aa18f990051d9f"),
    ("histogramx2/default", "4:e3f1ebe007d37db7"),
    ("mvtx1/default", "4:fbbdb850a818d4b0"),
    ("mvtx2/default", "4:5dca1e5179451fc3"),
    ("gemmx1/default", "4:eeeb0633388e0a93"),
    ("gemmx2/default", "7:be121672e0cffebb"),
    ("compressx1/default", "4:5411e5e38153cbf0"),
    ("compressx2/default", "7:b370d631a88febac"),
    ("aggregatex1/default", "5:34444a629afdabc6"),
    ("aggregatex2/default", "7:356f53d09440fabd"),
    ("combinex1/default", "4:da2083d4b79d4f16"),
    ("combinex2/default", "7:80679c4f2544b1c7"),
    ("combrelux1/default", "4:fc94a5b82996f8e0"),
    ("combrelux2/default", "7:e8a55f5222a3c7da"),
    ("poolingx1/default", "4:597be16003b4488c"),
    ("poolingx2/default", "7:2d6d63fabd556c0f"),
    ("initx1/default", "4:9311e0f300a75140"),
    ("initx2/default", "7:4135981bcb26bf22"),
    ("decomposex1/default", "4:f158b531cc97f942"),
    ("decomposex2/default", "7:e332b3f39fee00c5"),
    ("solver0x1/default", "8:6b103caeb4b2b07e"),
    ("solver0x2/default", "15:c9d9b7a6d96dbc96"),
    ("solver1x1/default", "12:371dd11d923ed51b"),
    ("solver1x2/default", "69:4ec62d6e46fd4f63"),
    ("invertx1/default", "4:13b9930cc1273729"),
    ("invertx2/default", "4:c34b841783ad8db0"),
    ("determinantx1/default", "7:a4eb00c529a1e08a"),
    ("determinantx2/default", "13:895b90135aa9037d"),
];

const FUZZ: &[(&str, &str)] = &[
    ("25bb269de6ac17b7", "4:b064502bdb7dfcd5"),
    ("12d5c9a2f7881dda", "6:9370689ab632d2ec"),
    ("c952344858336df0", "12:a35bd9f60f2313bc"),
    ("64e58af2ce6d8889", "5:1211a331929f574a"),
    ("60bdd2a9cb75c94e", "17:f437650e2f6ef55d"),
    ("fd24e7e43d1f93cc", "2:e25079a2c43cbda3"),
    ("0d8b989c71ceb0e6", "IiExceeded"),
    ("54f9b65daa2149a2", "4:addd8c1b7bd872c9"),
    ("a3519325be2390b6", "2:c222d9916af60ee3"),
    ("3a93cc10e205ab67", "2:37d1d93052424f58"),
    ("85d46c32511e32d6", "4:8cfb81d7ca684578"),
    ("6106bae686040be4", "3:eb2446ae5ca3b86f"),
    ("cd11d2ac82bcb570", "3:f7ae8ad6db87770c"),
    ("1f3ac7b50457eea8", "9:b7d8532566ef8170"),
    ("3dc4c7332b31a683", "4:10f3f19e9b20b525"),
    ("689b572408714594", "9:081a3a0ac0bef84b"),
    ("84710d2883ed4c0b", "10:6a5d08660c7fb3d4"),
    ("4bf722fcec4ca2ce", "2:fdacce435b617ceb"),
    ("9668370f19e285da", "2:c12a6eb98e07ffb8"),
    ("73747305fb6a6d4e", "4:fb71c81b6b9e6f63"),
    ("cf8849665e32c9c7", "3:81c71bb1d20bd61f"),
    ("579ecdd385dde72e", "2:0f39e21e82a4835e"),
    ("3492fc7e72c771d1", "4:4741f877582ee0ba"),
    ("195c0af324067a32", "4:fc67ec6cbc0ed754"),
    ("df355014cc649ad7", "19:704dfc4d13d0b6aa"),
    ("44a323fad7ff9ce3", "3:2da1b303f046619d"),
    ("65c2849bf664c6c8", "5:c2d49055fd4602c4"),
    ("4d4f5648c57e45dc", "6:4ff53eefe191a267"),
    ("f5875a5a77cba1d2", "4:739828f5cd189120"),
    ("cc0731869e0e5bcd", "3:d64c5078b08a7e33"),
    ("bee874bc32594636", "8:dd8aeb002abbc75e"),
    ("5bd874ed2ce4f1e6", "5:da67d9665dbfd87d"),
    ("ed35f472978cc974", "3:de82008be008f37b"),
    ("477010cd3c494540", "7:8ea73176c1d9f509"),
    ("2c6d36074a4ff987", "3:b464659966e182df"),
    ("30fde9d5fe01ecf9", "3:2953d3233cdbf1d2"),
    ("8c857b0e1139b843", "2:245d5b057b608c2d"),
    ("e472b91fa225cfa3", "12:4de9eff9769a825c"),
    ("00f9197001fe6e29", "3:512ef3c05abc4658"),
    ("066658ab8d9b9c85", "9:17520f3ff646eac0"),
    ("0fe65bb7c9644939", "4:99c3b33234d6d465"),
    ("98b7044b789b34b0", "6:4f20fe09377deda6"),
    ("d4a9772110b5dcf7", "7:4abff3ec740cd814"),
    ("e47d2111db90e1a3", "12:66c2bfaa374917fd"),
    ("36ba9e982ff1438b", "2:9d0d24658fc3e7fd"),
    ("780be514fbdd3395", "4:e1f6a4c64619fa17"),
    ("9051cbccfae2cbb5", "4:eb27fd80ff0b706e"),
    ("8b74f8846dd22252", "2:ffddcc1eb99587d2"),
    ("9009976e23ded1d3", "7:e8a86b348b616fcf"),
    ("30ef2f6bd1365973", "1:071559189edb5c25"),
    ("2c8647d299d8c894", "5:44fce909c599475e"),
    ("f505e14647f126ce", "41:82bae6b38061bef4"),
    ("2ee19b10aded4c3c", "28:0c9bb46eea9f4472"),
    ("d77c32fa17e42965", "2:297c54f64f6dec5e"),
    ("38c27e75cc54495e", "14:0f3793193017aa7b"),
    ("0c73d2d7f7913381", "5:e733fd715c383eb7"),
    ("a4612a1a5d0b3df4", "6:7f24565fb279fe7a"),
    ("1e86e99e1da4a3a6", "7:aed6258fb7dad1d6"),
    ("11e383d6bc7aedda", "14:08769949b0337c70"),
    ("145177179d6b3637", "4:38d86559388f9e75"),
    ("1dc8638de0acd066", "3:f649734c9aba34d1"),
    ("b14005aa564d12d9", "1:16900c2c6e0e2774"),
    ("5abb66e6ce4bbd2c", "5:96a219706835c27c"),
    ("1daca2be4ec183bc", "4:4cab42fd9f4cd7ef"),
];
