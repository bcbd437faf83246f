// Canonical Huffman coding over an arbitrary 32-bit symbol alphabet.
//
// This is the entropy stage shared by the SZ-family compressors (SZ2, SZ3,
// QoZ encode their quantization codes with it, exactly as the reference
// implementations do) and by the deflate-class lossless codec.
//
// The encoded blob is self-describing: a header carries the symbol count,
// alphabet size and run-length-coded code lengths, followed by the packed
// code bits, so decode needs nothing but the blob.
//
// The library holds one encoder and one decoder for this format. Their
// straight-line referees (heap code lengths, dense-histogram encoder,
// per-bit canonical decoder) live in the test-only eblcio_referees library,
// referees/huffman_reference.h.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"

namespace eblcio {

// Maximum code length produced by the canonical builder. Lengths beyond the
// limit are flattened with a Kraft-sum fix-up.
inline constexpr int kMaxHuffmanBits = 32;

// Width of the single-level decode lookup table: codes up to this length
// (the overwhelming majority on SZ-style quantization-code streams) decode
// with one table load; longer codes fall back to the canonical per-bit
// walk. Must not exceed BitReader::kPeekMax.
inline constexpr int kHuffmanLutBits = 11;

// Input limits of huffman_encode, set by its pooled scratch. The dense
// per-symbol tables are sized to the alphabet; 2^17 covers the SZ-family
// 65537-entry quantizer alphabet with headroom (the library's callers pass
// 65537, 256 and 65). The histogram's u32 lane counters each see every
// 4th symbol, so 2^33 symbols keep every count at most 2^31.
inline constexpr std::uint32_t kHuffmanMaxAlphabet = 1u << 17;
inline constexpr std::uint64_t kHuffmanMaxSymbols = std::uint64_t{1} << 33;

// Encodes `symbols` (each < alphabet_size) into a self-describing blob.
// Throws InvalidArgument for a symbol outside the alphabet, an alphabet
// above kHuffmanMaxAlphabet, or more than kHuffmanMaxSymbols symbols.
// Hot path: split-counter histogram, pooled thread-local scratch, two-queue
// Moffat length construction, and a batched 64-bit emit accumulator (see
// src/codec/README.md, "Encoder internals").
Bytes huffman_encode(std::span<const std::uint32_t> symbols,
                     std::uint32_t alphabet_size);

// Decodes a blob produced by huffman_encode (table-driven; see
// src/codec/README.md). Throws CorruptStream on a malformed blob.
std::vector<std::uint32_t> huffman_decode(std::span<const std::byte> blob);

}  // namespace eblcio
