//! Fingerprints recorded for [`crate::inputs::DEFAULT_SEED`]: the inputs
//! each workload is handed and the rule set mining returns on them. A
//! change to `gfd-datagen`, the text format or the miner that moves a
//! workload shows as a failed run instead of silently changing what is
//! measured. After an intended change, re-record from the `input` and
//! `output` lines a `--seed 0` run prints.

pub struct Expected {
    pub nodes: usize,
    pub edges: usize,
    /// FNV-1a of the graph text.
    pub text_hash: u64,
    /// FNV-1a of the read and batch streams (0 where there are none).
    pub stream_hash: u64,
    /// [`crate::checks::rule_set_fingerprint`] of the sequentially mined set.
    pub rules: u64,
}

pub const MINE_TINY: Expected = Expected {
    nodes: 400,
    edges: 1360,
    text_hash: 0xe880_e1fd_1437_a705,
    stream_hash: 0,
    rules: 0x464e_5db3_4cca_829b,
};

pub const MONITOR_LARGE: Expected = Expected {
    nodes: 1_000_000,
    edges: 3_000_000,
    text_hash: 0x0b9b_b319_b024_c52a,
    stream_hash: 0xb08c_73ac_ad31_4f94,
    rules: 0x024d_8c99_65b0_7139,
};
