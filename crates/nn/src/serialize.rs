//! Versioned, checksummed binary serialization of networks and tensor
//! records.
//!
//! The format is self-contained (no external serialization crates) and is
//! the one on-disk form of every model, chain or graph alike:
//!
//! * a magic string, the format version and the input shape;
//! * the node list — per node an op tag and its explicit input-edge list,
//!   and for a layer node its payload (tag byte, configuration and
//!   little-endian `f32` parameters) behind a byte length;
//! * a 64-bit [`checksum`] trailer over everything before it, so a file
//!   corrupted on its way through tools the workspace does not control fails
//!   loudly before any payload is interpreted.
//!
//! Decoded node lists pass through [`Network::from_nodes`], which revalidates
//! every edge and re-infers every shape, so even a checksum-valid stream
//! cannot yield an inconsistent network. The decoder never trusts a count to
//! size an allocation: every element it reads consumes stream bytes first.
//!
//! The node and layer encoding is known here only. `structure` runs the
//! same writer with the parameter values left out: it gives the stream's
//! structure as a small header, in which every parameter slice keeps its
//! length, plus the parameter slices themselves, borrowed in place.
//! [`crate::fingerprint::NetworkFingerprint::of`] hashes those, so the
//! evaluator caches name a model by this encoding without serializing it.
//!
//! [`tensors_to_bytes`] / [`tensors_from_bytes`] put the same framing (magic,
//! version, checksum trailer) and the same bounded reader around a list of
//! tensor records — shape, then length-prefixed little-endian `f32`s — behind
//! a few caller-defined `u32` header words. The vendor/user protocol's
//! functional-test suites use it as their wire format.

use crate::graph::{Node, NodeOp};
use crate::layers::{Activation, ActivationLayer, Conv2d, Dense, Flatten, Layer, MaxPool2d};
use crate::{Network, NnError, Result};
use dnnip_tensor::hash::checksum;
use dnnip_tensor::Tensor;

const MAGIC: &[u8; 8] = b"DNNIPGRF";
/// Version 2: the lane-hash [`checksum`] trailer.
const VERSION: u32 = 2;

const NODE_INPUT: u8 = 0;
const NODE_LAYER: u8 = 1;
const NODE_ADD: u8 = 2;
const NODE_CONCAT: u8 = 3;

const TAG_CONV2D: u8 = 1;
const TAG_DENSE: u8 = 2;
const TAG_MAXPOOL: u8 = 3;
const TAG_FLATTEN: u8 = 4;
const TAG_ACTIVATION: u8 = 5;

const ACT_RELU: u8 = 0;
const ACT_TANH: u8 = 1;
const ACT_SIGMOID: u8 = 2;
const ACT_IDENTITY: u8 = 3;

struct Writer<'a> {
    buf: Vec<u8>,
    /// With `Some`, each `f32` slice is listed here in place and only its
    /// length goes into `buf` (the [`structure`] of a stream).
    params: Option<Vec<&'a [f32]>>,
}

impl<'a> Writer<'a> {
    fn new() -> Self {
        Self {
            buf: Vec::new(),
            params: None,
        }
    }
    /// A stream opening with `magic` and `version`.
    fn framed(magic: &[u8; 8], version: u32) -> Self {
        let mut w = Self::new();
        w.buf.extend_from_slice(magic);
        w.u32(version);
        w
    }
    /// Append the [`checksum`] trailer over everything written so far.
    fn seal(mut self) -> Vec<u8> {
        let sum = checksum(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f32_slice(&mut self, values: &'a [f32]) {
        self.u32(values.len() as u32);
        match &mut self.params {
            Some(params) => params.push(values),
            None => {
                for v in values {
                    self.buf.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
    }
    fn shape(&mut self, shape: &[usize]) {
        self.u32(shape.len() as u32);
        for &d in shape {
            self.u32(d as u32);
        }
    }
    fn tensor(&mut self, t: &'a Tensor) {
        self.shape(t.shape());
        self.f32_slice(t.data());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }
    /// The body of a stream written by [`Writer::seal`], positioned after
    /// its magic and version once the trailer checksum, the magic and the
    /// version all match. `what` names the stream in errors.
    fn open(bytes: &'a [u8], magic: &[u8; 8], version: u32, what: &str) -> Result<Self> {
        if bytes.len() < magic.len() + 8 {
            return Err(NnError::Deserialize(format!(
                "{what} stream of {} bytes is shorter than the header and checksum",
                bytes.len()
            )));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().expect("trailer is 8 bytes"));
        let computed = checksum(body);
        if computed != stored {
            return Err(NnError::Deserialize(format!(
                "{what} checksum mismatch: stored {stored:016x}, computed {computed:016x} — the \
                 file was corrupted or tampered with in transit"
            )));
        }
        let mut r = Self::new(body);
        if r.take(magic.len())? != magic {
            return Err(NnError::Deserialize(format!("bad {what} magic")));
        }
        let found = r.u32()?;
        if found != version {
            return Err(NnError::Deserialize(format!(
                "unsupported {what} format version {found} (expected {version})"
            )));
        }
        Ok(r)
    }
    /// Fail unless every byte of the body was consumed.
    fn finish(&self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(NnError::Deserialize(format!(
                "{} trailing bytes after the last record",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(NnError::Deserialize(format!(
                "unexpected end of stream at byte {} (wanted {n} more)",
                self.pos
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn f32_vec(&mut self) -> Result<Vec<f32>> {
        let n = self.u32()? as usize;
        let bytes = self.take(n * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }
    /// A length-prefixed list of `u32`s (a shape or an edge list).
    fn u32_list(&mut self) -> Result<Vec<usize>> {
        let n = self.u32()? as usize;
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(self.u32()? as usize);
        }
        Ok(out)
    }
    fn tensor(&mut self) -> Result<Tensor> {
        let shape = self.u32_list()?;
        tensor(self.f32_vec()?, &shape)
    }
}

/// `data` as a tensor of `shape`, when the shape's element count is exactly
/// the data length (checked without overflow).
fn tensor(data: Vec<f32>, shape: &[usize]) -> Result<Tensor> {
    if shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d)) != Some(data.len()) {
        return Err(NnError::Deserialize(format!(
            "tensor shape {shape:?} does not hold {} values",
            data.len()
        )));
    }
    Ok(Tensor::from_vec(data, shape)?)
}

fn activation_code(act: Activation) -> u8 {
    match act {
        Activation::Relu => ACT_RELU,
        Activation::Tanh => ACT_TANH,
        Activation::Sigmoid => ACT_SIGMOID,
        Activation::Identity => ACT_IDENTITY,
    }
}

fn activation_from_code(code: u8) -> Result<Activation> {
    match code {
        ACT_RELU => Ok(Activation::Relu),
        ACT_TANH => Ok(Activation::Tanh),
        ACT_SIGMOID => Ok(Activation::Sigmoid),
        ACT_IDENTITY => Ok(Activation::Identity),
        other => Err(NnError::Deserialize(format!(
            "unknown activation code {other}"
        ))),
    }
}

fn write_layer<'a>(w: &mut Writer<'a>, layer: &'a Layer) {
    match layer {
        Layer::Conv2d(conv) => {
            w.u8(TAG_CONV2D);
            let (weight, bias) = conv.parameters();
            w.shape(weight.shape());
            w.u32(conv.geometry().stride as u32);
            w.u32(conv.geometry().pad as u32);
            w.f32_slice(weight.data());
            w.f32_slice(bias.data());
        }
        Layer::Dense(dense) => {
            w.u8(TAG_DENSE);
            let (weight, bias) = dense.parameters();
            w.shape(weight.shape());
            w.f32_slice(weight.data());
            w.f32_slice(bias.data());
        }
        Layer::MaxPool2d(pool) => {
            w.u8(TAG_MAXPOOL);
            w.u32(pool.kernel() as u32);
            w.u32(pool.stride() as u32);
        }
        Layer::Flatten(_) => {
            w.u8(TAG_FLATTEN);
        }
        Layer::Activation(act) => {
            w.u8(TAG_ACTIVATION);
            w.u8(activation_code(act.activation()));
        }
    }
}

fn read_layer(r: &mut Reader<'_>) -> Result<Layer> {
    let tag = r.u8()?;
    match tag {
        TAG_CONV2D => {
            let wshape = r.u32_list()?;
            let stride = r.u32()? as usize;
            let pad = r.u32()? as usize;
            let weight = tensor(r.f32_vec()?, &wshape)?;
            let bias = r.f32_vec()?;
            let bias_len = bias.len();
            Ok(Conv2d::new(weight, tensor(bias, &[bias_len])?, stride, pad)?.into())
        }
        TAG_DENSE => {
            let wshape = r.u32_list()?;
            let weight = tensor(r.f32_vec()?, &wshape)?;
            let bias = r.f32_vec()?;
            let bias_len = bias.len();
            Ok(Dense::new(weight, tensor(bias, &[bias_len])?)?.into())
        }
        TAG_MAXPOOL => {
            let k = r.u32()? as usize;
            let s = r.u32()? as usize;
            Ok(MaxPool2d::new(k, s).into())
        }
        TAG_FLATTEN => Ok(Flatten::new().into()),
        TAG_ACTIVATION => {
            let code = r.u8()?;
            Ok(ActivationLayer::new(activation_from_code(code)?).into())
        }
        other => Err(NnError::Deserialize(format!("unknown layer tag {other}"))),
    }
}

/// Decode one layer from the front of `bytes`, returning the layer and the
/// number of bytes it occupied.
fn layer_from_bytes(bytes: &[u8]) -> Result<(Layer, usize)> {
    let mut r = Reader::new(bytes);
    let layer = read_layer(&mut r)?;
    Ok((layer, r.pos))
}

/// The body of a model stream: input shape, then the node list, each layer
/// payload behind its byte length.
fn write_network<'a>(w: &mut Writer<'a>, network: &'a Network) {
    w.shape(network.input_shape());
    w.u32(network.num_nodes() as u32);
    for node in network.nodes() {
        w.u8(match node.op() {
            NodeOp::Input => NODE_INPUT,
            NodeOp::Layer(_) => NODE_LAYER,
            NodeOp::Add => NODE_ADD,
            NodeOp::Concat => NODE_CONCAT,
        });
        w.shape(node.inputs());
        if let NodeOp::Layer(i) = node.op() {
            let at = w.buf.len();
            w.u32(0);
            write_layer(w, &network.layers()[i]);
            let len = (w.buf.len() - at - 4) as u32;
            w.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
        }
    }
}

/// Serialize a network into a self-contained, checksummed byte vector.
///
/// The encoding is deterministic: serializing the network [`from_bytes`]
/// returns reproduces the input bytes exactly, so fingerprints survive an
/// export → import round trip.
pub fn to_bytes(network: &Network) -> Vec<u8> {
    let mut w = Writer::framed(MAGIC, VERSION);
    write_network(&mut w, network);
    w.seal()
}

/// The structure of `network`'s stream and its parameter slices in stream
/// order: the body [`to_bytes`] writes with every `f32` value left out (each
/// slice keeps its length; a layer's declared byte length counts only what
/// is written), and the slices themselves, borrowed in place.
pub(crate) fn structure(network: &Network) -> (Vec<u8>, Vec<&[f32]>) {
    let mut w = Writer {
        buf: Vec::new(),
        params: Some(Vec::new()),
    };
    write_network(&mut w, network);
    (
        w.buf,
        w.params.expect("a structure writer lists its slices"),
    )
}

/// Reconstruct a network from bytes produced by [`to_bytes`].
///
/// # Errors
///
/// Returns [`NnError::Deserialize`] for truncated, tampered (checksum
/// mismatch), padded or otherwise malformed streams and unsupported
/// versions, and propagates [`Network::from_nodes`] validation errors
/// (cycles, dangling edges, shape mismatches) for streams describing
/// inconsistent topologies.
pub fn from_bytes(bytes: &[u8]) -> Result<Network> {
    let mut r = Reader::open(bytes, MAGIC, VERSION, "model")?;
    let input_shape = r.u32_list()?;
    let num_nodes = r.u32()?;
    let mut layers = Vec::new();
    let mut nodes = Vec::new();
    for _ in 0..num_nodes {
        let tag = r.u8()?;
        let inputs = r.u32_list()?;
        let op = match tag {
            NODE_INPUT => NodeOp::Input,
            NODE_LAYER => {
                let len = r.u32()? as usize;
                let (layer, consumed) = layer_from_bytes(r.take(len)?)?;
                if consumed != len {
                    return Err(NnError::Deserialize(format!(
                        "layer payload declared {len} bytes but decoding consumed {consumed}"
                    )));
                }
                layers.push(layer);
                NodeOp::Layer(layers.len() - 1)
            }
            NODE_ADD => NodeOp::Add,
            NODE_CONCAT => NodeOp::Concat,
            other => return Err(NnError::Deserialize(format!("unknown node tag {other}"))),
        };
        nodes.push(Node::new(op, inputs));
    }
    r.finish()?;
    Network::from_nodes(layers, nodes, &input_shape)
}

/// Serialize `tensors` behind `header` words into a checksummed stream that
/// opens with `magic` and `version`: the header words, the record count, then
/// per tensor its shape and its length-prefixed `f32` values.
pub fn tensors_to_bytes(
    magic: &[u8; 8],
    version: u32,
    header: &[u32],
    tensors: &[&Tensor],
) -> Vec<u8> {
    let mut w = Writer::framed(magic, version);
    for &word in header {
        w.u32(word);
    }
    w.u32(tensors.len() as u32);
    for t in tensors {
        w.tensor(t);
    }
    w.seal()
}

/// Decode a stream written by [`tensors_to_bytes`] with `N` header words.
///
/// # Errors
///
/// Returns [`NnError::Deserialize`] for truncated, tampered (checksum
/// mismatch), padded or otherwise malformed streams, a foreign magic, an
/// unsupported version and records whose shape does not hold their values.
pub fn tensors_from_bytes<const N: usize>(
    bytes: &[u8],
    magic: &[u8; 8],
    version: u32,
) -> Result<([u32; N], Vec<Tensor>)> {
    let mut r = Reader::open(bytes, magic, version, "tensor")?;
    let mut header = [0u32; N];
    for word in &mut header {
        *word = r.u32()?;
    }
    let count = r.u32()?;
    let mut tensors = Vec::new();
    for _ in 0..count {
        tensors.push(r.tensor()?);
    }
    r.finish()?;
    Ok((header, tensors))
}

/// Save a network to a file.
///
/// # Errors
///
/// Returns [`NnError::Deserialize`] wrapping the I/O error message on failure.
pub fn to_file(network: &Network, path: &std::path::Path) -> Result<()> {
    std::fs::write(path, to_bytes(network))
        .map_err(|e| NnError::Deserialize(format!("writing {}: {e}", path.display())))
}

/// Load a network from a file written by [`to_file`].
///
/// # Errors
///
/// Returns [`NnError::Deserialize`] for I/O errors or malformed content.
pub fn from_file(path: &std::path::Path) -> Result<Network> {
    let bytes = std::fs::read(path)
        .map_err(|e| NnError::Deserialize(format!("reading {}: {e}", path.display())))?;
    from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Activation;
    use crate::zoo;

    /// One layer's payload: tag byte, configuration and parameters.
    fn layer_to_bytes(layer: &Layer) -> Vec<u8> {
        let mut w = Writer::new();
        write_layer(&mut w, layer);
        w.buf
    }

    #[test]
    fn round_trip_preserves_structure_and_parameters() {
        let net = zoo::mnist_model_scaled(42).unwrap();
        let bytes = to_bytes(&net);
        let restored = from_bytes(&bytes).unwrap();
        assert_eq!(restored.num_layers(), net.num_layers());
        assert_eq!(restored.input_shape(), net.input_shape());
        assert_eq!(restored.parameters_flat(), net.parameters_flat());
        assert_eq!(restored.num_classes(), net.num_classes());
    }

    #[test]
    fn round_trip_preserves_behaviour() {
        let net = zoo::tiny_cnn(4, 3, Activation::Tanh, 17).unwrap();
        let bytes = to_bytes(&net);
        let restored = from_bytes(&bytes).unwrap();
        let x = dnnip_tensor::Tensor::from_fn(&[1, 8, 8], |i| (i as f32 * 0.13).sin());
        let a = net.forward_sample(&x).unwrap();
        let b = restored.forward_sample(&x).unwrap();
        assert!(a.approx_eq(&b, 1e-6));
    }

    #[test]
    fn round_trip_is_byte_exact() {
        for net in [
            zoo::residual_classifier(7).unwrap(),
            zoo::branching_classifier(8).unwrap(),
            zoo::tiny_cnn(4, 3, Activation::Relu, 9).unwrap(),
        ] {
            let bytes = to_bytes(&net);
            let restored = from_bytes(&bytes).unwrap();
            assert_eq!(to_bytes(&restored), bytes);
            assert_eq!(restored.nodes(), net.nodes());
            assert_eq!(restored.num_parameters(), net.num_parameters());
        }
    }

    #[test]
    fn corrupted_streams_are_rejected() {
        let net = zoo::tiny_mlp(4, 6, 3, Activation::Relu, 0).unwrap();
        let bytes = to_bytes(&net);
        assert!(from_bytes(&bytes[..bytes.len() - 4]).is_err(), "truncated");
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(from_bytes(&bad_magic).is_err(), "bad magic");
        let mut bad_version = bytes.clone();
        bad_version[8] = 99;
        assert!(from_bytes(&bad_version).is_err(), "bad version");
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(from_bytes(&trailing).is_err(), "trailing bytes");
        assert!(from_bytes(&[]).is_err(), "empty stream");
        // Any single tampered byte trips the checksum.
        for i in [0usize, 8, bytes.len() / 2, bytes.len() - 9, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            let err = from_bytes(&bad).unwrap_err();
            assert!(
                err.to_string().contains("checksum mismatch"),
                "flip at byte {i}: {err}"
            );
        }
    }

    #[test]
    fn single_layer_round_trip_matches_network_encoding() {
        let net = zoo::tiny_cnn(4, 3, Activation::Relu, 3).unwrap();
        for layer in net.layers() {
            let bytes = layer_to_bytes(layer);
            let (restored, consumed) = layer_from_bytes(&bytes).unwrap();
            assert_eq!(consumed, bytes.len());
            // Re-encoding the decoded layer reproduces the exact bytes, and the
            // encoding matches what a full network stream embeds for the layer.
            assert_eq!(layer_to_bytes(&restored), bytes);
            assert_eq!(restored.name(), layer.name());
        }
        // Truncated payloads and unknown tags are rejected.
        let bytes = layer_to_bytes(&net.layers()[0]);
        assert!(layer_from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(layer_from_bytes(&[0xEE]).is_err());
        assert!(layer_from_bytes(&[]).is_err());
    }

    #[test]
    fn tensor_streams_round_trip_and_share_the_model_framing() {
        let a = Tensor::from_fn(&[2, 3], |i| i as f32 - 2.5);
        let b = Tensor::from_vec(vec![7.0], &[]).unwrap();
        let bytes = tensors_to_bytes(b"TESTSTRM", 3, &[9, 10], &[&a, &b]);
        let (header, tensors) = tensors_from_bytes::<2>(&bytes, b"TESTSTRM", 3).unwrap();
        assert_eq!((header, tensors), ([9, 10], vec![a, b]));
        let empty = tensors_to_bytes(b"TESTSTRM", 3, &[], &[]);
        assert_eq!(
            tensors_from_bytes::<0>(&empty, b"TESTSTRM", 3).unwrap().1,
            vec![]
        );
        // Foreign magic, another version, a model stream and a flipped bit.
        assert!(tensors_from_bytes::<2>(&bytes, b"DNNIPGRF", 3).is_err());
        assert!(tensors_from_bytes::<2>(&bytes, b"TESTSTRM", 4).is_err());
        let model = to_bytes(&zoo::tiny_mlp(2, 2, 2, Activation::Relu, 0).unwrap());
        assert!(tensors_from_bytes::<2>(&model, MAGIC, VERSION).is_err());
        let mut flipped = bytes.clone();
        flipped[20] ^= 0x10;
        let err = tensors_from_bytes::<2>(&flipped, b"TESTSTRM", 3).unwrap_err();
        assert!(
            err.to_string().contains("tensor checksum mismatch"),
            "{err}"
        );
    }

    #[test]
    fn trailer_known_answer() {
        // Pins the model trailer: a change to this value must come with a
        // bump of `VERSION`.
        let bytes = to_bytes(&zoo::tiny_mlp(3, 5, 2, Activation::Relu, 1).unwrap());
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().unwrap());
        assert_eq!(stored, checksum(body));
        assert_eq!((bytes.len(), stored), (248, 0x00ad_957e_b580_057d));
    }

    #[test]
    fn file_round_trip() {
        let net = zoo::tiny_mlp(3, 4, 2, Activation::Sigmoid, 5).unwrap();
        let dir = std::env::temp_dir().join("dnnip_serialize_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.dnnip");
        to_file(&net, &path).unwrap();
        let restored = from_file(&path).unwrap();
        assert_eq!(restored.parameters_flat(), net.parameters_flat());
        std::fs::remove_file(&path).ok();
        assert!(from_file(&dir.join("missing.dnnip")).is_err());
    }
}
