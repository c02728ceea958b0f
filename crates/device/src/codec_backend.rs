//! The device-side [`CompressionBackend`]: compressed payloads cross the
//! modeled PCIe link and the codec itself runs as staged device kernels.
//!
//! [`HostCodecBackend`](mq_compress::HostCodecBackend) and
//! [`DeviceCodecBackend`] produce byte-identical payloads for the same
//! [`Codec`] — the backend only decides *where* the codec runs and what the
//! modeled clock is charged. Decoding through this backend issues a
//! `DecodeChunk` stream command (link time over the compressed bytes plus
//! [`DeviceSpec::decode_kernel_time`](crate::DeviceSpec::decode_kernel_time));
//! encoding issues the symmetric `EncodeChunk`.
//!
//! The hot pipeline path in the engine talks to the stream commands
//! directly; this backend is the standalone seam for tests, benches and any
//! caller that wants one-shot device codec round trips.

use crate::memory::PinnedBuffer;
use crate::stream::{Device, Stream};
use crate::DeviceError;
use mq_compress::{Codec, CodecError, CompressionBackend};
use mq_num::Complex64;
use std::sync::Arc;

/// Runs the codec on a simulated device: payloads ship compressed over the
/// link and decode/encode kernels are charged on a dedicated stream.
pub struct DeviceCodecBackend {
    device: Device,
    stream: Stream,
    codec: Arc<dyn Codec>,
}

impl DeviceCodecBackend {
    /// Builds a backend over `device` running `codec` on its own stream.
    pub fn new(device: &Device, codec: Arc<dyn Codec>) -> DeviceCodecBackend {
        DeviceCodecBackend {
            device: device.clone(),
            stream: device.create_stream(),
            codec,
        }
    }
}

impl std::fmt::Debug for DeviceCodecBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceCodecBackend")
            .field("device", &self.device.spec().name)
            .field("codec", &self.codec.name())
            .finish()
    }
}

fn device_err(e: DeviceError) -> CodecError {
    match e {
        DeviceError::Codec(m) => CodecError::Corrupt(m),
        other => CodecError::Io(other.to_string()),
    }
}

impl CompressionBackend for DeviceCodecBackend {
    fn name(&self) -> &str {
        "device"
    }

    fn codec(&self) -> &Arc<dyn Codec> {
        &self.codec
    }

    fn encode(&self, amps: &[Complex64]) -> Result<Vec<u8>, CodecError> {
        let buf = self.device.alloc(amps.len()).map_err(device_err)?;
        let staging = PinnedBuffer::from_slice(amps);
        self.stream.h2d(&staging, 0, buf, 0, amps.len());
        let cell = self.stream.encode_chunk(buf, 0, amps.len(), &self.codec);
        let sync = self.stream.synchronize();
        let _ = self.device.free(buf);
        sync.map_err(device_err)?;
        cell.take()
            .ok_or_else(|| CodecError::Io("encode command was skipped".to_string()))
    }

    fn decode(&self, payload: &[u8], out: &mut [Complex64]) -> Result<(), CodecError> {
        let buf = self.device.alloc(out.len()).map_err(device_err)?;
        let staging = PinnedBuffer::new(out.len());
        self.stream
            .decode_chunk(payload.to_vec(), &self.codec, buf, 0, out.len());
        self.stream.d2h(buf, 0, &staging, 0, out.len());
        let sync = self.stream.synchronize();
        let _ = self.device.free(buf);
        sync.map_err(device_err)?;
        staging.read(|data| out.copy_from_slice(data));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceSpec;
    use mq_compress::{compress_complex, CodecSpec, HostCodecBackend};
    use mq_num::complex::c64;

    fn backends(spec: CodecSpec) -> (HostCodecBackend, DeviceCodecBackend) {
        let dev = Device::new(DeviceSpec::tiny_test(1 << 16));
        let codec: Arc<dyn Codec> = Arc::from(spec.build());
        (
            HostCodecBackend::new(Arc::clone(&codec)),
            DeviceCodecBackend::new(&dev, codec),
        )
    }

    #[test]
    fn host_and_device_backends_are_payload_compatible() {
        for spec in CodecSpec::sweep_set() {
            let (host, device) = backends(spec);
            let amps: Vec<Complex64> = (0..256).map(|i| c64((i % 7) as f64, -(i as f64))).collect();
            let host_payload = host.encode(&amps).unwrap();
            let device_payload = device.encode(&amps).unwrap();
            assert_eq!(host_payload, device_payload, "{spec}");
            // Cross-decode: device payload through the host codec and back.
            let mut via_host = vec![Complex64::ZERO; 256];
            let mut via_device = vec![Complex64::ZERO; 256];
            host.decode(&device_payload, &mut via_host).unwrap();
            device.decode(&host_payload, &mut via_device).unwrap();
            assert_eq!(via_host, via_device, "{spec}");
        }
    }

    #[test]
    fn device_backend_charges_compressed_link_traffic() {
        let dev = Device::new(DeviceSpec::tiny_test(1 << 16));
        let tele = mq_telemetry::Telemetry::new();
        dev.attach_telemetry(tele.clone());
        let codec: Arc<dyn Codec> = Arc::from(CodecSpec::ZeroRle.build());
        let backend = DeviceCodecBackend::new(&dev, Arc::clone(&codec));
        // A sparse chunk: ZeroRle crushes it.
        let mut amps = vec![Complex64::ZERO; 1024];
        amps[0] = Complex64::ONE;
        let payload = compress_complex(codec.as_ref(), &amps);
        let mut out = vec![Complex64::ZERO; 1024];
        backend.decode(&payload, &mut out).unwrap();
        dev.detach_telemetry();
        assert_eq!(out, amps);
        use mq_telemetry::Counter;
        assert_eq!(
            tele.counter(Counter::BytesH2dCompressed),
            payload.len() as u64
        );
        assert!(tele.counter(Counter::DeviceDecodeTime) > 0);
        // The decode H2D carried payload bytes, the verification D2H raw.
        assert_eq!(tele.counter(Counter::BytesH2d), payload.len() as u64);
    }

    #[test]
    fn backend_errors_are_typed() {
        let (_, device) = backends(CodecSpec::Fpc);
        let mut out = vec![Complex64::ZERO; 16];
        match device.decode(&[1, 2, 3], &mut out) {
            Err(CodecError::Corrupt(_)) | Err(CodecError::LengthMismatch { .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
