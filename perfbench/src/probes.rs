//! Standalone replays that time one layer at a time: the security
//! engine alone, the DRAM model alone, and the chipkill decoder alone.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use itesp_core::mac::{mac_block, MacKey};
use itesp_core::{EngineConfig, Scheme, SecurityEngine};
use itesp_dram::{AddressMapping, DramConfig, MemorySystem};
use itesp_reliability::{column_parity, inject, verify_and_correct, CodeWord, Correction, Fault};
use itesp_trace::{MultiProgram, PAGE_BYTES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The DRAM configuration of `ExperimentParams::paper_4core`.
pub fn paper_dram() -> DramConfig {
    DramConfig::table_iii().with_mapping(AddressMapping::RowBufferHit4)
}

/// The engine configuration `ExperimentParams::paper_4core` builds for
/// `scheme` (4 enclaves, 64 KB metadata cache, 4-block rank stride).
pub fn paper_engine(scheme: Scheme) -> EngineConfig {
    let capacity = paper_dram().geometry.capacity_bytes();
    EngineConfig {
        scheme,
        enclaves: 4,
        data_capacity: capacity,
        enclave_capacity: capacity / 4,
        metadata_cache_bytes: 64 << 10,
        cache_ways: 8,
        model_overflow: false,
        rank_stride_blocks: 4,
    }
}

/// One memory request of a replayed stream.
#[derive(Debug, Clone, Copy)]
pub struct MemRequest {
    pub addr: u64,
    pub is_write: bool,
}

/// Result of replaying traces through [`SecurityEngine::on_access`].
pub struct EngineReplay {
    pub accesses: u64,
    pub seconds: f64,
    /// Data requests, each followed by its metadata transactions.
    pub stream: Vec<MemRequest>,
}

/// Replay `mp` through the engine alone, interleaving programs one
/// record at a time and mapping pages to dense leaf ids in first-touch
/// order (as the simulator's enclave path does).
pub fn engine_replay(mp: &MultiProgram, scheme: Scheme) -> EngineReplay {
    let mut engine = SecurityEngine::new(paper_engine(scheme));
    let copies = mp.copies();
    let mut leaf_maps: Vec<HashMap<u64, u64>> = vec![HashMap::new(); copies];
    let longest = mp.traces.iter().map(Vec::len).max().unwrap_or(0);
    let mut stream = Vec::with_capacity(mp.total_ops() * 3);
    let mut accesses = 0;
    let t0 = Instant::now();
    for i in 0..longest {
        for (prog, leaf_map) in leaf_maps.iter_mut().enumerate() {
            let Some(r) = mp.traces[prog].get(i) else {
                continue;
            };
            let page = r.paddr / PAGE_BYTES;
            let next = leaf_map.len() as u64;
            let leaf = *leaf_map.entry(page).or_insert(next);
            let block = leaf * (PAGE_BYTES / 64) + (r.paddr % PAGE_BYTES) / 64;
            let out = engine.on_access(prog, r.paddr, block, r.is_write());
            accesses += 1;
            stream.push(MemRequest {
                addr: r.paddr,
                is_write: r.is_write(),
            });
            stream.extend(out.mem.iter().map(|m| MemRequest {
                addr: m.addr,
                is_write: m.is_write,
            }));
        }
    }
    let seconds = t0.elapsed().as_secs_f64();
    black_box(engine.stats());
    EngineReplay {
        accesses,
        seconds,
        stream,
    }
}

/// Result of replaying a request stream through [`MemorySystem`].
pub struct DramReplay {
    pub requests: u64,
    pub seconds: f64,
    /// Enqueues refused with `QueueFull` and retried a cycle later.
    pub queue_full_retries: u64,
}

/// Offer one request per DRAM cycle to the memory system alone. A full
/// queue retries at the memory system's next event, skipping the idle
/// cycles between as the simulator does. Runs until every request
/// completes.
pub fn dram_replay(stream: &[MemRequest]) -> DramReplay {
    let mut mem = MemorySystem::new(paper_dram());
    let mut done = Vec::new();
    let mut now = 0u64;
    let mut retries = 0u64;
    let t0 = Instant::now();
    for r in stream {
        loop {
            let accepted = if r.is_write {
                mem.enqueue_write(r.addr, now)
            } else {
                mem.enqueue_read(r.addr, now)
            };
            now = if accepted.is_ok() {
                now + 1
            } else {
                retries += 1;
                mem.next_event().max(now + 1)
            };
            mem.tick(now);
            mem.drain_completions_into(&mut done);
            done.clear();
            if accepted.is_ok() {
                break;
            }
        }
    }
    while !mem.is_idle() {
        now = mem.next_event().max(now + 1);
        mem.tick(now);
        mem.drain_completions_into(&mut done);
        done.clear();
    }
    DramReplay {
        requests: stream.len() as u64,
        seconds: t0.elapsed().as_secs_f64(),
        queue_full_retries: retries,
    }
}

/// Time [`verify_and_correct`] on `n` codewords, each with one random
/// bit, pin or chip fault; returns ns per decode. Every word must come
/// back corrected to the original.
pub fn decode_probe(seed: u64, n: usize) -> Result<f64, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let key = MacKey::derive(seed, 0);
    let words: Vec<(CodeWord, CodeWord, u64, u64, u64)> = (0..n)
        .map(|i| {
            let mut data = [0u8; 64];
            rng.fill(&mut data[..]);
            let counter = i as u64;
            let addr = (i as u64) * 64;
            let word = CodeWord::new(data, mac_block(&key, &data, counter, addr));
            let parity = column_parity(&word);
            let mut bad = word;
            let fault = Fault::random(&mut rng);
            inject(&mut bad, fault, &mut rng);
            (word, bad, parity, counter, addr)
        })
        .collect();
    let t0 = Instant::now();
    for (good, bad, parity, counter, addr) in &words {
        let (result, fixed) = verify_and_correct(black_box(bad), *parity, &key, *counter, *addr);
        match result {
            Correction::Corrected { .. } if fixed == *good => {}
            // A fault that happened to flip no bit leaves the word clean.
            Correction::Clean if bad == good => {}
            other => return Err(format!("decode probe: {other:?} on word at {addr:#x}")),
        }
    }
    let ns = t0.elapsed().as_nanos() as f64 / n.max(1) as f64;
    Ok(ns)
}
