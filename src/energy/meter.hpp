// Per-node energy accounting, mirroring the paper's measurement
// methodology (§5.6): the meter accumulates protocol-attributable energy
// by category; idle/sleep energy is excluded (the paper subtracts it).
//
// Radio energy is additionally attributed per *stream* — the channel
// class the traffic belongs to (proposal, vote, request, ...). Streams
// are the unit of the dissemination-policy sweep: a bench can report
// where each Joule went, e.g. how much of a node's budget the client
// request flood consumed versus the proposal stream.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace eesmr::energy {

/// Where a Joule went. Categories match the paper's cost drivers.
enum class Category : std::uint8_t {
  kSend,    ///< radio transmit
  kRecv,    ///< radio receive / scanning
  kSign,    ///< digital-signature generation
  kVerify,  ///< digital-signature verification
  kHash,    ///< hashing (block ids, chaining)
  kMac,     ///< HMAC computations
  kAttest,  ///< trusted-component attestations (monotonic-counter UI)
};
constexpr std::size_t kNumCategories = 7;

const char* category_name(Category c);

/// Traffic class of a transmission: which logical channel the bytes
/// belong to. Tagged into every flood frame so forwarded copies stay
/// attributed to the stream that originated them.
enum class Stream : std::uint8_t {
  kProposal,       ///< leader proposals (incl. new-view proposals)
  kVote,           ///< votes / certify messages
  kControl,        ///< blame, view-change QCs, status, equivocation proofs
  kCheckpoint,     ///< checkpoint signatures
  kRequest,        ///< client request submission (and request forwarding)
  kReply,          ///< signed execution acknowledgments to clients
  kStateTransfer,  ///< snapshot request/response
  kSync,           ///< chain synchronization
  kOther,          ///< untyped traffic (raw router users, tests)
};
constexpr std::size_t kNumStreams = 9;

const char* stream_name(Stream s);

/// Radio traffic/energy of one stream at one node.
struct StreamStats {
  double send_mj = 0;
  double recv_mj = 0;
  std::uint64_t transmissions = 0;  ///< send operations
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;

  [[nodiscard]] double total_mj() const { return send_mj + recv_mj; }
  /// No send and nothing received: the stream is left out of exports.
  [[nodiscard]] bool idle() const {
    return transmissions == 0 && bytes_received == 0 && recv_mj == 0;
  }
  StreamStats& operator+=(const StreamStats& other);
};

/// Accumulates milliJoules and operation counts per category.
class Meter {
 public:
  void charge(Category c, double millijoules);
  void charge_send(double millijoules, std::size_t bytes,
                   Stream stream = Stream::kOther);
  void charge_recv(double millijoules, std::size_t bytes,
                   Stream stream = Stream::kOther);

  [[nodiscard]] double millijoules(Category c) const;
  [[nodiscard]] double total_millijoules() const;
  [[nodiscard]] std::uint64_t ops(Category c) const;
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t bytes_received() const { return bytes_recv_; }
  [[nodiscard]] std::uint64_t messages_sent() const {
    return ops(Category::kSend);
  }

  /// Radio traffic/energy attributed to one stream (channel class).
  [[nodiscard]] const StreamStats& stream(Stream s) const {
    return streams_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] const std::array<StreamStats, kNumStreams>& streams() const {
    return streams_;
  }

  void reset();
  /// Elementwise sum (for cluster-wide totals).
  Meter& operator+=(const Meter& other);

  /// One-line human-readable summary (mJ per category).
  [[nodiscard]] std::string summary() const;

 private:
  std::array<double, kNumCategories> mj_{};
  std::array<std::uint64_t, kNumCategories> ops_{};
  std::array<StreamStats, kNumStreams> streams_{};
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_recv_ = 0;
};

}  // namespace eesmr::energy
