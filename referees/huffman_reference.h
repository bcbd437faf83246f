// Straight-line Huffman referees over the codec/huffman.h blob format.
//
// Test-only: CMake builds this as `eblcio_referees`, linked by the tests
// and bench_micro_codecs, never by the library itself. Each referee is
// the simple, readable form of a production kernel, and shares none of
// that kernel's code, so a differential test against it can catch a bug
// in either:
//  * huffman_code_lengths — heap-built tree depths plus the Kraft fix-up,
//    the length semantics the frozen reference blobs were produced with;
//  * huffman_encode_reference — dense histogram, heap lengths, per-symbol
//    BitWriter emit; byte-identical to huffman_encode on every input;
//  * huffman_decode_reference — its own header parse and per-bit
//    canonical walk; must agree with the LUT decoder on every blob,
//    corrupt ones included.
// bench_micro_codecs also times the two referees as the in-run
// normalizers of the huffman_{encode,decode} perf gates.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "codec/huffman.h"

namespace eblcio {

// Computes canonical code lengths for `freqs` (index = symbol). Zero
// frequency yields length 0 (symbol absent); lengths never exceed
// kMaxHuffmanBits.
std::vector<std::uint8_t> huffman_code_lengths(
    std::span<const std::uint64_t> freqs);

// Reference encoder: same blob as huffman_encode, without its alphabet
// and symbol-count limits.
Bytes huffman_encode_reference(std::span<const std::uint32_t> symbols,
                               std::uint32_t alphabet_size);

// Reference decoder: same output and the same CorruptStream cases as
// huffman_decode.
std::vector<std::uint32_t> huffman_decode_reference(
    std::span<const std::byte> blob);

}  // namespace eblcio
