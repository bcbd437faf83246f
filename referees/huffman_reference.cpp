#include "referees/huffman_reference.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <queue>

#include "codec/bitstream.h"
#include "common/buffer_pool.h"
#include "common/error.h"

namespace eblcio {
namespace {

// Reverses the low `n` bits of `code` so an MSB-first canonical code can be
// emitted through the LSB-first BitWriter.
std::uint64_t reverse_bits(std::uint64_t code, int n) {
  std::uint64_t r = 0;
  for (int i = 0; i < n; ++i) {
    r = (r << 1) | (code & 1);
    code >>= 1;
  }
  return r;
}

struct TreeNode {
  std::uint64_t freq;
  std::int32_t left;    // -1 for leaf
  std::int32_t right;
  std::uint32_t symbol; // valid for leaves
};

}  // namespace

std::vector<std::uint8_t> huffman_code_lengths(
    std::span<const std::uint64_t> freqs) {
  const std::size_t n = freqs.size();
  std::vector<std::uint8_t> lengths(n, 0);

  std::vector<std::uint32_t> present;
  for (std::size_t s = 0; s < n; ++s)
    if (freqs[s] > 0) present.push_back(static_cast<std::uint32_t>(s));
  if (present.empty()) return lengths;
  if (present.size() == 1) {
    lengths[present[0]] = 1;
    return lengths;
  }

  // Heap-based Huffman tree construction.
  std::vector<TreeNode> nodes;
  nodes.reserve(present.size() * 2);
  using Entry = std::pair<std::uint64_t, std::int32_t>;  // (freq, node index)
  auto cmp = [](const Entry& a, const Entry& b) { return a.first > b.first; };
  std::priority_queue<Entry, std::vector<Entry>, decltype(cmp)> heap(cmp);
  for (std::uint32_t s : present) {
    nodes.push_back({freqs[s], -1, -1, s});
    heap.emplace(freqs[s], static_cast<std::int32_t>(nodes.size() - 1));
  }
  while (heap.size() > 1) {
    const auto a = heap.top();
    heap.pop();
    const auto b = heap.top();
    heap.pop();
    nodes.push_back({a.first + b.first, a.second, b.second, 0});
    heap.emplace(a.first + b.first,
                 static_cast<std::int32_t>(nodes.size() - 1));
  }

  // Depth-first traversal to assign depths.
  struct Item {
    std::int32_t node;
    int depth;
  };
  std::vector<Item> stack{{heap.top().second, 0}};
  while (!stack.empty()) {
    const Item it = stack.back();
    stack.pop_back();
    const TreeNode& nd = nodes[it.node];
    if (nd.left < 0) {
      lengths[nd.symbol] = static_cast<std::uint8_t>(std::max(it.depth, 1));
    } else {
      stack.push_back({nd.left, it.depth + 1});
      stack.push_back({nd.right, it.depth + 1});
    }
  }

  // Length-limit with a Kraft-sum fix-up: clamp overlong codes, then demote
  // codes (increase their length) until the Kraft inequality holds again.
  bool overflow = false;
  for (std::uint32_t s : present)
    if (lengths[s] > kMaxHuffmanBits) {
      lengths[s] = kMaxHuffmanBits;
      overflow = true;
    }
  if (overflow) {
    auto kraft = [&]() {
      long double k = 0;
      for (std::uint32_t s : present)
        k += std::pow(2.0L, -static_cast<int>(lengths[s]));
      return k;
    };
    // Sort symbols by ascending frequency so the cheapest codes get demoted.
    std::vector<std::uint32_t> order = present;
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      return freqs[a] < freqs[b];
    });
    std::size_t i = 0;
    while (kraft() > 1.0L) {
      std::uint32_t s = order[i % order.size()];
      if (lengths[s] < kMaxHuffmanBits) ++lengths[s];
      ++i;
    }
  }
  return lengths;
}

namespace {

// Canonical code assignment: symbols ordered by (length, symbol).
struct CanonicalCodes {
  std::vector<std::uint8_t> lengths;
  std::vector<std::uint64_t> codes;  // MSB-first code values
};

CanonicalCodes assign_canonical(std::vector<std::uint8_t> lengths) {
  CanonicalCodes cc;
  cc.codes.assign(lengths.size(), 0);
  std::vector<std::uint32_t> order;
  for (std::uint32_t s = 0; s < lengths.size(); ++s)
    if (lengths[s] > 0) order.push_back(s);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (lengths[a] != lengths[b]) return lengths[a] < lengths[b];
    return a < b;
  });
  std::uint64_t code = 0;
  int prev_len = 0;
  for (std::uint32_t s : order) {
    code <<= (lengths[s] - prev_len);
    cc.codes[s] = code;
    ++code;
    prev_len = lengths[s];
  }
  cc.lengths = std::move(lengths);
  return cc;
}

void write_lengths_rle(Bytes& out, std::span<const std::uint8_t> lengths) {
  // (length, run) pairs; run is u32. Compact because quantization-code
  // alphabets are sparse away from the center.
  std::uint32_t i = 0;
  std::vector<std::pair<std::uint8_t, std::uint32_t>> runs;
  while (i < lengths.size()) {
    std::uint32_t j = i;
    while (j < lengths.size() && lengths[j] == lengths[i]) ++j;
    runs.emplace_back(lengths[i], j - i);
    i = j;
  }
  append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(runs.size()));
  for (auto [len, run] : runs) {
    append_pod<std::uint8_t>(out, len);
    append_pod<std::uint32_t>(out, run);
  }
}

std::vector<std::uint8_t> read_lengths_rle(ByteReader& r,
                                           std::uint32_t alphabet_size) {
  const auto nruns = r.read_pod<std::uint32_t>();
  std::vector<std::uint8_t> lengths;
  lengths.reserve(alphabet_size);
  for (std::uint32_t k = 0; k < nruns; ++k) {
    const auto len = r.read_pod<std::uint8_t>();
    const auto run = r.read_pod<std::uint32_t>();
    // A corrupt length would index the canonical decode tables (sized
    // kMaxHuffmanBits + 2) out of bounds.
    EBLCIO_CHECK_STREAM(len <= kMaxHuffmanBits,
                        "huffman code length out of range");
    EBLCIO_CHECK_STREAM(lengths.size() + run <= alphabet_size,
                        "huffman length table overflow");
    lengths.insert(lengths.end(), run, len);
  }
  EBLCIO_CHECK_STREAM(lengths.size() == alphabet_size,
                      "huffman length table underflow");
  return lengths;
}

// Parsed blob header plus the canonical decode tables.
struct DecodeSetup {
  std::uint64_t count = 0;
  std::uint32_t alphabet_size = 0;
  std::vector<std::uint8_t> lengths;
  std::span<const std::byte> payload;
  // Symbols ordered by (length, symbol) — canonical index order.
  std::vector<std::uint32_t> order;
  std::array<std::uint64_t, kMaxHuffmanBits + 2> first_code{};
  std::array<std::uint32_t, kMaxHuffmanBits + 2> first_index{};
  std::array<std::uint32_t, kMaxHuffmanBits + 2> num_codes{};
};

// Out of line, as decode_symbol_slow below: see the note there.
[[gnu::noinline]] DecodeSetup decode_setup(std::span<const std::byte> blob) {
  DecodeSetup s;
  ByteReader r(blob);
  s.count = r.read_pod<std::uint64_t>();
  s.alphabet_size = r.read_pod<std::uint32_t>();
  // The encoder emits at most kHuffmanMaxAlphabet symbols; a forged size
  // must fail before it sizes the length table.
  EBLCIO_CHECK_STREAM(s.alphabet_size <= kHuffmanMaxAlphabet,
                      "huffman alphabet above kHuffmanMaxAlphabet");
  s.lengths = read_lengths_rle(r, s.alphabet_size);
  const auto payload_size = r.read_pod<std::uint64_t>();
  s.payload = r.read_bytes(payload_size);
  // Every legitimate symbol costs at least one payload bit; a corrupt
  // count must not drive a giant allocation below. Computed as a byte
  // floor so the comparison cannot overflow for counts near UINT64_MAX.
  const std::uint64_t min_bytes = s.count / 8 + (s.count % 8 != 0 ? 1 : 0);
  EBLCIO_CHECK_STREAM(min_bytes <= s.payload.size(),
                      "huffman symbol count exceeds payload");

  std::size_t npresent = 0;
  for (std::uint32_t sym = 0; sym < s.alphabet_size; ++sym)
    if (s.lengths[sym] > 0) ++npresent;
  s.order.reserve(npresent);
  for (std::uint32_t sym = 0; sym < s.alphabet_size; ++sym)
    if (s.lengths[sym] > 0) s.order.push_back(sym);
  std::sort(s.order.begin(), s.order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (s.lengths[a] != s.lengths[b])
                return s.lengths[a] < s.lengths[b];
              return a < b;
            });

  for (std::uint32_t sym : s.order) ++s.num_codes[s.lengths[sym]];
  std::uint64_t code = 0;
  std::uint32_t idx = 0;
  for (int len = 1; len <= kMaxHuffmanBits; ++len) {
    s.first_code[len] = code;
    s.first_index[len] = idx;
    code = (code + s.num_codes[len]) << 1;
    idx += s.num_codes[len];
  }
  return s;
}

// Per-bit canonical decode of one symbol. Throws on invalid codes.
//
// This and decode_setup stay out of line. huffman_decode_reference is the
// in-run normalizer of the huffman_decode perf gates, and the baselines
// were recorded with both as calls. Inlined, the walk runs ~20% faster
// and an inlined setup spills the decode loop's registers (~5% slower);
// either would shift every gate ratio.
[[gnu::noinline]] std::uint32_t decode_symbol_slow(const DecodeSetup& s,
                                                   BitReader& br) {
  std::uint64_t code = 0;
  int len = 0;
  for (;;) {
    EBLCIO_CHECK_STREAM(len < kMaxHuffmanBits, "invalid huffman code");
    code = (code << 1) | br.get_bit();
    ++len;
    if (s.num_codes[len] > 0 &&
        code < s.first_code[len] + s.num_codes[len]) {
      EBLCIO_CHECK_STREAM(code >= s.first_code[len], "invalid huffman code");
      return s.order[s.first_index[len] + (code - s.first_code[len])];
    }
  }
}

}  // namespace

Bytes huffman_encode_reference(std::span<const std::uint32_t> symbols,
                               std::uint32_t alphabet_size) {
  std::vector<std::uint64_t> freqs(alphabet_size, 0);
  for (std::uint32_t s : symbols) {
    EBLCIO_CHECK_ARG(s < alphabet_size, "symbol outside alphabet");
    ++freqs[s];
  }
  auto cc = assign_canonical(huffman_code_lengths(freqs));

  Bytes out = BufferPool::global().acquire(symbols.size() / 2 + 64);
  append_pod<std::uint64_t>(out, symbols.size());
  append_pod<std::uint32_t>(out, alphabet_size);
  write_lengths_rle(out, cc.lengths);

  // Emit through precomputed bit-reversed codes: the per-occurrence cost is
  // one table load plus one word-buffered put_bits (reversing inside the
  // emit loop would cost O(code length) per symbol occurrence).
  struct EmitEntry {
    std::uint32_t code;  // bit-reversed, LSB-first
    std::uint32_t len;
  };
  std::vector<EmitEntry> emit(cc.codes.size(), EmitEntry{0, 0});
  std::size_t total_bits = 0;
  for (std::uint32_t s = 0; s < cc.codes.size(); ++s) {
    if (cc.lengths[s] == 0) continue;
    emit[s] = {static_cast<std::uint32_t>(
                   reverse_bits(cc.codes[s], cc.lengths[s])),
               cc.lengths[s]};
    total_bits += freqs[s] * cc.lengths[s];
  }
  BitWriter bw;
  bw.reserve_bits(total_bits);
  for (std::uint32_t s : symbols) {
    const EmitEntry e = emit[s];
    bw.put_bits(e.code, static_cast<int>(e.len));
  }
  Bytes payload = bw.take();
  append_pod<std::uint64_t>(out, payload.size());
  append_bytes(out, payload);
  BufferPool::global().release(std::move(payload));
  return out;
}

std::vector<std::uint32_t> huffman_decode_reference(
    std::span<const std::byte> blob) {
  const DecodeSetup s = decode_setup(blob);
  std::vector<std::uint32_t> result;
  result.reserve(s.count);
  if (s.count == 0) return result;
  EBLCIO_CHECK_STREAM(!s.order.empty(), "huffman stream with empty alphabet");
  if (s.order.size() == 1) {
    result.assign(s.count, s.order[0]);
    return result;
  }

  BitReader br(s.payload);
  for (std::uint64_t i = 0; i < s.count; ++i)
    result.push_back(decode_symbol_slow(s, br));
  return result;
}

}  // namespace eblcio
