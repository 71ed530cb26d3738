//! Microbenchmarks of the DRAM substrate: address decode, scheduler
//! ticks, and sustained random-read service.

use criterion::{criterion_group, criterion_main, Criterion};
use itesp_dram::{
    AddressDecoder, AddressMapping, Channel, DramConfig, DramGeometry, MemorySystem, Request,
};
use itesp_oracle::{ReferenceChannel, Scheduler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_decode(c: &mut Criterion) {
    let dec = AddressDecoder::new(DramGeometry::table_iii(), AddressMapping::RowBufferHit4);
    c.bench_function("address_decode", |b| {
        let mut a = 0u64;
        b.iter(|| {
            a = a.wrapping_add(0x9E37_79B9_7F4A_7C15);
            std::hint::black_box(dec.decode(a))
        });
    });
}

fn bench_service(c: &mut Criterion) {
    c.bench_function("dram_service_64_random_reads", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| {
            let mut mem = MemorySystem::new(DramConfig::table_iii());
            for _ in 0..32 {
                let addr: u64 = rng.gen_range(0..1u64 << 32) & !63;
                mem.enqueue_read(addr, 0).expect("space");
            }
            let mut now = 0;
            let mut done = Vec::new();
            while done.len() < 32 {
                mem.tick(now);
                mem.drain_completions_into(&mut done);
                now += 1;
            }
            std::hint::black_box(now)
        });
    });
}

/// A request mix that keeps both controller queues deep: mostly dense
/// blocks (row hits spread over many banks) plus a slice of same-bank
/// different-row strides (conflicts forcing PRE/ACT churn).
fn saturated_workload(n: usize) -> Vec<(u64, bool)> {
    let g = DramGeometry::table_iii();
    let conflict_stride = u64::from(g.blocks_per_row / 4)
        * u64::from(g.banks_per_rank)
        * u64::from(g.ranks_per_channel)
        * 4
        * 64;
    let mut rng = StdRng::seed_from_u64(0xD5A7);
    (0..n)
        .map(|_| {
            let addr = if rng.gen_bool(0.7) {
                rng.gen_range(0u64..512) * 64
            } else {
                rng.gen_range(0u64..16) * 64 + rng.gen_range(1u64..5) * conflict_stride
            };
            (addr, rng.gen_bool(0.3))
        })
        .collect()
}

/// Push the workload through a channel, refilling the queues as space
/// opens so they stay saturated (a refused enqueue waits for the next
/// cycle), and return the cycle the last request completed.
fn drive_saturated<C: Scheduler>(ch: &mut C, workload: &[(u64, bool)]) -> u64 {
    let cfg = DramConfig::table_iii();
    let dec = AddressDecoder::new(cfg.geometry, cfg.mapping);
    let mut next = 0usize;
    let mut done = Vec::new();
    let mut now = 0u64;
    while done.len() < workload.len() {
        while next < workload.len() {
            let (addr, is_write) = workload[next];
            let req = Request::new(next as u64, addr, dec.decode(addr), is_write, now);
            if !ch.enqueue(req) {
                break;
            }
            next += 1;
        }
        ch.tick(now);
        ch.drain_completions_into(&mut done);
        now += 1;
    }
    now
}

/// Saturated-queue scheduler throughput: deep read/write queues with
/// mixed row hits and conflicts, optimized channel vs the reference
/// scheduler it must match command-for-command.
fn bench_saturated_tick(c: &mut Criterion) {
    let workload = saturated_workload(2048);
    let mut group = c.benchmark_group("channel_saturated_tick");
    group.bench_function("optimized", |b| {
        b.iter(|| {
            let mut ch = Channel::new(DramConfig::table_iii());
            std::hint::black_box(drive_saturated(&mut ch, &workload))
        });
    });
    group.bench_function("reference", |b| {
        b.iter(|| {
            let mut ch = ReferenceChannel::new(DramConfig::table_iii());
            std::hint::black_box(drive_saturated(&mut ch, &workload))
        });
    });
    group.finish();
}

/// The byte address of `(rank, bank, row, column)` on a one-channel
/// geometry under 4-RBH mapping, whose block address reads
/// `| row | bank | col_hi | rank | col_lo(2) |`.
fn rbh4_addr(g: &DramGeometry, rank: u64, bank: u64, row: u64, column: u64) -> u64 {
    let (rank_bits, col_bits, bank_bits) = (g.rank_bits(), g.column_bits(), g.bank_bits());
    let block = (column & 3)
        | rank << 2
        | (column >> 2) << (2 + rank_bits)
        | bank << (rank_bits + col_bits)
        | row << (rank_bits + col_bits + bank_bits);
    block * 64
}

/// A request mix that keeps many banks busy at once: uniform over three
/// banks in each of the 16 ranks (48 banks, of which the saturated
/// queues keep ~27 active per sweep), two rows per bank (row hits and
/// conflicts), any column.
fn wide_workload(n: usize) -> Vec<(u64, bool)> {
    let cfg = DramConfig::table_iii();
    let g = cfg.geometry;
    let dec = AddressDecoder::new(g, cfg.mapping);
    let mut rng = StdRng::seed_from_u64(0x51DE);
    (0..n)
        .map(|_| {
            let rank = rng.gen_range(0..u64::from(g.ranks_per_channel));
            let bank = rng.gen_range(0u64..3);
            let row = rng.gen_range(0u64..2);
            let column = rng.gen_range(0..u64::from(g.blocks_per_row));
            let addr = rbh4_addr(&g, rank, bank, row, column);
            let at = dec.decode(addr);
            assert_eq!(
                (at.rank, at.bank, at.row),
                (rank as u32, bank as u32, row as u32)
            );
            (addr, rng.gen_bool(0.3))
        })
        .collect()
}

/// Wide-occupancy scheduler throughput: saturated queues spread over
/// ~27 active banks, where a sweep that visits every active bank pays
/// the most, optimized channel vs the reference scheduler.
fn bench_wide_tick(c: &mut Criterion) {
    let workload = wide_workload(2048);
    let mut group = c.benchmark_group("channel_wide_tick");
    group.bench_function("optimized", |b| {
        b.iter(|| {
            let mut ch = Channel::new(DramConfig::table_iii());
            std::hint::black_box(drive_saturated(&mut ch, &workload))
        });
    });
    group.bench_function("reference", |b| {
        b.iter(|| {
            let mut ch = ReferenceChannel::new(DramConfig::table_iii());
            std::hint::black_box(drive_saturated(&mut ch, &workload))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_decode,
    bench_service,
    bench_saturated_tick,
    bench_wide_tick
);
criterion_main!(benches);
