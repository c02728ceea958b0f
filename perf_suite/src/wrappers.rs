//! Tracing wrappers around the program's three trait seams: [`Codec`],
//! [`ChunkStore`] and [`ChunkExecutor`]. Each forwards every trait method
//! unchanged and opens a span around the call, so the layers are measured
//! from outside through public items only.
//!
//! The wrappers also take the counts the program cannot give: how many
//! stores wrote back exactly what was loaded, and how many encoded an
//! all-zero chunk. That bookkeeping reads every amplitude once, so it runs
//! under its own `trace.probe` span and is charged to the tracer, not to
//! the layer it watches.

use crate::trace::{Recorder, SpanGuard};
use memqsim_core::engine::{ChunkExecutor, EngineError, ExecContext, ExecutorStats, GroupWork};
use memqsim_core::store::{ChunkStore, StoreCounters};
use mq_circuit::partition::RemapTransition;
use mq_compress::{Codec, CodecError, CompressionStats, PayloadMeta};
use mq_num::Complex64;
use mq_telemetry::Telemetry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const RELAXED: Ordering = Ordering::Relaxed;

/// [`Codec`] wrapper: `compress.encode` / `compress.decode` spans (whose
/// counts are the call counts) plus byte and zero-input counts.
pub struct TracingCodec {
    inner: Box<dyn Codec>,
    rec: Arc<Recorder>,
    /// Raw bytes handed to `compress`.
    pub bytes_in: AtomicU64,
    /// Payload bytes `compress` returned.
    pub bytes_out: AtomicU64,
    /// `compress` calls whose input was all zeros.
    pub zero_inputs: AtomicU64,
}

impl TracingCodec {
    pub fn new(inner: Box<dyn Codec>, rec: Arc<Recorder>) -> TracingCodec {
        TracingCodec {
            inner,
            rec,
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            zero_inputs: AtomicU64::new(0),
        }
    }
}

impl Codec for TracingCodec {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn is_lossless(&self) -> bool {
        self.inner.is_lossless()
    }

    fn error_bound(&self) -> Option<f64> {
        self.inner.error_bound()
    }

    fn compress(&self, data: &[f64]) -> Vec<u8> {
        if !self.rec.is_active() {
            return self.inner.compress(data);
        }
        {
            let _probe = self.rec.span("trace.probe");
            if data.iter().all(|x| *x == 0.0) {
                self.zero_inputs.fetch_add(1, RELAXED);
            }
        }
        let _span = self.rec.span("compress.encode");
        let out = self.inner.compress(data);
        self.bytes_in
            .fetch_add(std::mem::size_of_val(data) as u64, RELAXED);
        self.bytes_out.fetch_add(out.len() as u64, RELAXED);
        out
    }

    fn decompress(&self, bytes: &[u8], out: &mut [f64]) -> Result<(), CodecError> {
        let _span = self.rec.span("compress.decode");
        self.inner.decompress(bytes, out)
    }

    fn payload_meta(&self, payload: &[u8]) -> Option<PayloadMeta> {
        self.inner.payload_meta(payload)
    }

    fn set_dynamic_bound(&self, eb: Option<f64>) -> bool {
        self.inner.set_dynamic_bound(eb)
    }
}

/// Order-sensitive 64-bit digest of a chunk, and whether it is all zeros,
/// in one pass. The terms are independent, so the loop pipelines; it only
/// has to tell "the bytes that were loaded" from "anything else".
fn digest(amps: &[Complex64]) -> (u64, bool) {
    let mut acc = 0u64;
    let mut any = 0u64;
    for (i, z) in amps.iter().enumerate() {
        let bits = z.re.to_bits() ^ z.im.to_bits().rotate_left(32);
        any |= (z.re.to_bits() | z.im.to_bits()) << 1; // ignore the sign of zero
        acc =
            acc.wrapping_add(bits.wrapping_mul((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1));
    }
    (acc, any == 0)
}

/// How many chunks the replay probe takes from each of the mid-run and the
/// final state.
pub const CAPTURE_PER_STATE: usize = 8;

/// [`ChunkStore`] wrapper: `store.load|store|load_payload|store_payload|
/// swap|flush` spans, the wasted-work counts, and the mid-run chunk capture.
pub struct TracingStore {
    inner: Arc<dyn ChunkStore>,
    rec: Arc<Recorder>,
    /// Digest of what `load_chunk` last returned for each chunk.
    loaded: Vec<AtomicU64>,
    pub unchanged_stores: AtomicU64,
    pub zero_stores: AtomicU64,
    /// Plan stage whose write-backs are sampled for the replay probe.
    capture_stage: u32,
    /// Chunks copied out of the capture stage for the codec replay probe.
    pub captured: Mutex<Vec<Vec<Complex64>>>,
}

impl TracingStore {
    pub fn new(inner: Arc<dyn ChunkStore>, rec: Arc<Recorder>, capture_stage: u32) -> TracingStore {
        TracingStore {
            loaded: (0..inner.chunk_count())
                .map(|_| AtomicU64::new(0))
                .collect(),
            inner,
            rec,
            unchanged_stores: AtomicU64::new(0),
            zero_stores: AtomicU64::new(0),
            capture_stage,
            captured: Mutex::new(Vec::new()),
        }
    }

    /// Every `stride`-th chunk of the capture stage, so the sample spans the
    /// register instead of sitting in one corner of it.
    fn wants_capture(&self, i: usize) -> bool {
        let stride = (self.inner.chunk_count() / CAPTURE_PER_STATE).max(1);
        self.rec.stage.load(RELAXED) == self.capture_stage && i.is_multiple_of(stride)
    }
}

impl ChunkStore for TracingStore {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn n_qubits(&self) -> u32 {
        self.inner.n_qubits()
    }

    fn chunk_bits(&self) -> u32 {
        self.inner.chunk_bits()
    }

    fn load_chunk(&self, i: usize, out: &mut [Complex64]) -> Result<(), CodecError> {
        if !self.rec.is_active() {
            return self.inner.load_chunk(i, out);
        }
        {
            let _span = self.rec.span("store.load");
            self.inner.load_chunk(i, out)?;
        }
        let _probe = self.rec.span("trace.probe");
        self.loaded[i].store(digest(out).0, RELAXED);
        Ok(())
    }

    fn store_chunk(&self, i: usize, amps: &[Complex64]) -> Result<(), CodecError> {
        if !self.rec.is_active() {
            return self.inner.store_chunk(i, amps);
        }
        {
            let _probe = self.rec.span("trace.probe");
            let (d, zero) = digest(amps);
            if d == self.loaded[i].load(RELAXED) {
                self.unchanged_stores.fetch_add(1, RELAXED);
            }
            if zero {
                self.zero_stores.fetch_add(1, RELAXED);
            }
            if self.wants_capture(i) {
                let mut c = self.captured.lock().expect("capture poisoned");
                if c.len() < CAPTURE_PER_STATE {
                    c.push(amps.to_vec());
                }
            }
        }
        let _span = self.rec.span("store.store");
        self.inner.store_chunk(i, amps)
    }

    fn load_chunk_payload(&self, i: usize) -> Result<Option<Vec<u8>>, CodecError> {
        let _span = self.rec.span("store.load_payload");
        self.inner.load_chunk_payload(i)
    }

    fn store_chunk_payload(&self, i: usize, payload: Vec<u8>) -> Result<bool, CodecError> {
        let _span = self.rec.span("store.store_payload");
        self.inner.store_chunk_payload(i, payload)
    }

    fn swap_chunks(&self, i: usize, j: usize) -> Result<bool, CodecError> {
        let _span = self.rec.span("store.swap");
        let swapped = self.inner.swap_chunks(i, j)?;
        if swapped {
            let a = self.loaded[i].load(RELAXED);
            self.loaded[i].store(self.loaded[j].swap(a, RELAXED), RELAXED);
        }
        Ok(swapped)
    }

    fn flush(&self) -> Result<(), CodecError> {
        let _span = self.rec.span("store.flush");
        self.inner.flush()
    }

    fn state_bytes(&self) -> usize {
        self.inner.state_bytes()
    }

    fn peak_state_bytes(&self) -> usize {
        self.inner.peak_state_bytes()
    }

    fn peak_resident_bytes(&self) -> usize {
        self.inner.peak_resident_bytes()
    }

    fn counters(&self) -> StoreCounters {
        self.inner.counters()
    }

    fn cumulative_stats(&self) -> CompressionStats {
        self.inner.cumulative_stats()
    }

    fn resident_chunks(&self) -> Vec<usize> {
        self.inner.resident_chunks()
    }

    fn attach_telemetry(&self, telemetry: Telemetry) {
        self.inner.attach_telemetry(telemetry)
    }

    fn detach_telemetry(&self) {
        self.inner.detach_telemetry()
    }

    fn set_error_allowance(&self, eb: Option<f64>) {
        self.inner.set_error_allowance(eb)
    }

    fn debug_corrupt_chunk(&self, i: usize) {
        self.inner.debug_corrupt_chunk(i)
    }
}

/// [`ChunkExecutor`] wrapper: an `engine.stage` span from `begin_stage` to
/// the end of `end_stage`, with `engine.submit` / `engine.end_stage` /
/// `engine.remap` / `engine.prepare` / `engine.finish` spans around the
/// calls themselves.
pub struct TracingExecutor<'a> {
    inner: &'a mut dyn ChunkExecutor,
    rec: Arc<Recorder>,
    stage: Option<SpanGuard>,
}

impl<'a> TracingExecutor<'a> {
    pub fn new(inner: &'a mut dyn ChunkExecutor, rec: Arc<Recorder>) -> TracingExecutor<'a> {
        TracingExecutor {
            inner,
            rec,
            stage: None,
        }
    }
}

impl ChunkExecutor for TracingExecutor<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn prepare(&mut self, ctx: &ExecContext) -> Result<(), EngineError> {
        let _span = self.rec.span("engine.prepare");
        self.inner.prepare(ctx)
    }

    fn begin_stage(
        &mut self,
        ctx: &ExecContext,
        index: u32,
        n_groups: usize,
    ) -> Result<(), EngineError> {
        self.stage = Some(self.rec.span("engine.stage"));
        self.rec.stage.store(index, RELAXED);
        self.inner.begin_stage(ctx, index, n_groups)
    }

    fn submit(&mut self, ctx: &ExecContext, group: GroupWork) -> Result<(), EngineError> {
        let _span = self.rec.span("engine.submit");
        self.inner.submit(ctx, group)
    }

    fn end_stage(&mut self, ctx: &ExecContext, index: u32) -> Result<(), EngineError> {
        let result = {
            let _span = self.rec.span("engine.end_stage");
            self.inner.end_stage(ctx, index)
        };
        self.stage = None;
        result
    }

    fn remap(
        &mut self,
        ctx: &ExecContext,
        transition: &RemapTransition,
    ) -> Result<usize, EngineError> {
        let _span = self.rec.span("engine.remap");
        self.inner.remap(ctx, transition)
    }

    fn finish(&mut self, ctx: &ExecContext) -> Result<ExecutorStats, EngineError> {
        // A failed submit skips `end_stage`; close its stage span here.
        self.stage = None;
        let _span = self.rec.span("engine.finish");
        self.inner.finish(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_tells_order_sign_and_zero() {
        let a = [Complex64::new(1.0, 2.0), Complex64::new(3.0, 4.0)];
        let b = [Complex64::new(3.0, 4.0), Complex64::new(1.0, 2.0)];
        let c = [Complex64::new(2.0, 1.0), Complex64::new(3.0, 4.0)];
        assert_eq!(digest(&a), digest(&a));
        assert_ne!(digest(&a).0, digest(&b).0);
        assert_ne!(digest(&a).0, digest(&c).0);
        assert!(!digest(&a).1);
        assert!(digest(&[Complex64::ZERO, Complex64::new(-0.0, 0.0)]).1);
        assert!(!digest(&[Complex64::ZERO, Complex64::new(0.0, 1e-300)]).1);
    }
}
