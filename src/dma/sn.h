// Sequence numbers (SN) — the heart of EasyIO's orderless file operation
// (paper §4.2).
//
// Each DMA channel owns a *completion record* in a predefined persistent
// region: the hardware completion buffer (ADDR: the ring slot of the most
// recently finished descriptor) plus a software-maintained wraparound counter
// (CNT, incremented per ring wrap). CNT, the channel ID and ADDR together
// form an SN that increases monotonically as the channel completes work, so
//
//   "is the write whose log entry carries SN s durable?"
//     <=>  completed_sn(channel(s)) >= s
//
// holds across crashes, which is what lets metadata commit in parallel with
// the data DMA and still recover correctly.

#ifndef EASYIO_DMA_SN_H_
#define EASYIO_DMA_SN_H_

#include <cassert>
#include <cstdint>

namespace easyio::dma {

// Ring slots are 1-based so that ADDR == 0 means "nothing completed in this
// CNT era"; see Channel for the wraparound rule.
inline constexpr uint64_t kRingSlots = 4096;

struct Sn {
  // 0 == "no DMA attached" (pure-memcpy writes); always considered complete.
  static constexpr uint64_t kNoneSeq = 0;
  // The packed on-log representation keeps the channel in the top byte, so a
  // seq only round-trips through Pack/Unpack if it fits in 56 bits. At 4096
  // ring slots that is ~2^44 ring wraps — unreachable in practice, but a
  // sequence beyond it must fail loudly, not wrap (see Pack).
  static constexpr uint64_t kMaxSeq = (1ull << 56) - 1;

  uint8_t channel = 0;
  uint64_t seq = kNoneSeq;  // cnt * (kRingSlots + 1) + slot

  bool none() const { return seq == kNoneSeq; }

  static Sn None() { return Sn{}; }

  static Sn Make(uint8_t channel, uint64_t cnt, uint64_t slot) {
    assert(cnt <= (kMaxSeq - slot) / (kRingSlots + 1));
    return Sn{channel, cnt * (kRingSlots + 1) + slot};
  }

  // Packed on-log representation: channel in the top byte. A seq wider than
  // 56 bits cannot round-trip; silently masking it (the old behaviour) would
  // wrap it to a *smaller* value that recovery would wrongly treat as already
  // durable. Assert in debug builds; in release, saturate to kMaxSeq, which
  // compares greater than any genuine completion record, so recovery treats
  // the entry as not-yet-durable and discards it — the safe direction.
  uint64_t Pack() const {
    assert(seq <= kMaxSeq);
    const uint64_t s = seq > kMaxSeq ? kMaxSeq : seq;
    return (static_cast<uint64_t>(channel) << 56) | s;
  }
  static Sn Unpack(uint64_t packed) {
    return Sn{static_cast<uint8_t>(packed >> 56), packed & kMaxSeq};
  }

  bool operator==(const Sn&) const = default;
};

// The persistent completion record of one channel. `addr` is the paper's
// 64-bit completion buffer; `cnt` is the paper's extra wraparound counter
// placed alongside it (§4.2: "we add an extra 64-bit counter alongside each
// completion buffer").
struct CompletionRecord {
  // Ring slots are <= kRingSlots, so the high bits of `addr` are free for
  // status — mirroring real DSA completion records, which carry a status
  // byte alongside the progress field. Bit 63 marks "channel halted with a
  // transfer error"; it never appears unless fault injection raises it, and
  // CompletedSeq() masks it out so the durability watermark is unaffected.
  static constexpr uint64_t kErrorBit = 1ull << 63;

  uint64_t addr;  // last finished ring slot (1-based; 0 = none this era)
  uint64_t cnt;   // ring wraparound count

  bool error() const { return (addr & kErrorBit) != 0; }
  uint64_t CompletedSeq() const {
    return cnt * (kRingSlots + 1) + (addr & ~kErrorBit);
  }
};
static_assert(sizeof(CompletionRecord) == 16);

// Outcome of Channel::WaitSn: the SN is durable either way; kRecovered says
// a transfer error was raised on the channel during the wait (only possible
// with a fault injector attached), which a consumer may count against the
// channel.
enum class DmaResult { kOk, kRecovered };

}  // namespace easyio::dma

#endif  // EASYIO_DMA_SN_H_
