#pragma once

/// \file wire.hpp
/// Versioned binary wire format for shard queries and results — the
/// serialization layer of the multi-host transport.
///
/// Every message travels as one length-prefixed frame (see framing.hpp);
/// this file defines the *payload* encoding. A payload is
///
///   [u8 version][u8 message type][body ...]
///
/// with all multi-byte integers little-endian. Three message types exist:
///
///   Query   — (test, universe, range, want) plus the population slice of
///             the range: the coordinator ships the concrete faults, so a
///             worker is completely stateless (no shared placement code
///             version to keep in sync across a fleet).
///   Result  — the verdict for one range, shaped by the query's want:
///             per-fault verdict bits packed into 64-bit masks (the same
///             lane-mask currency the packed kernels reduce in), one
///             all-detected byte, or serialized guaranteed traces.
///   Error   — a worker-side failure description; the coordinator treats
///             it like a dead peer and re-dispatches the range.
///   Hello   — the connection-opening check: the coordinator opens every
///             connection with Hello{kFrameVersion}; a worker speaking
///             the same frame version echoes it, any other version gets
///             an Error and the connection closes (no negotiation).
///   Ping    — coordinator heartbeat probe carrying a nonce; answered
///   Pong    — immediately by the worker, echoing the nonce. The peer
///             supervisor uses pong age to drive the Alive → Suspect →
///             Dead lifecycle. Pings are not queries: hooks and query
///             counters ignore them.
///
/// Both fault universes are covered: a Query carries a universe tag and
/// either (RunOptions + InjectedFault slice) or (WordRunOptions +
/// backgrounds + InjectedBitFault slice). Query ids are opaque u64s chosen
/// by the coordinator; a Result echoes the id and range of its Query so
/// replies can be matched across re-dispatches (duplicate replies carry
/// the same id — first one wins, the rest are dropped).
///
/// Decoding is strict: any truncation, trailing garbage, unknown tag or
/// out-of-range count throws WireFormatError, which the transport layers
/// convert into "corrupt peer" (connection closed, range re-dispatched).

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "march/march_test.hpp"
#include "sim/march_runner.hpp"
#include "word/word_march.hpp"
#include "word/word_trace.hpp"

namespace mtg::net {

/// Bumped on any incompatible payload change; peers reject mismatches.
inline constexpr std::uint8_t kWireVersion = 1;

/// The *frame* version this build speaks (see framing.hpp): 2 is the
/// CRC32C-trailed frame. Checked per connection by the Hello exchange.
inline constexpr int kFrameVersion = 2;

/// Thrown by the decoder on any malformed payload.
class WireFormatError : public std::runtime_error {
public:
    explicit WireFormatError(const std::string& what)
        : std::runtime_error(what) {}
};

enum class MessageType : std::uint8_t {
    Query = 1,
    Result = 2,
    Error = 3,
    Hello = 4,
    Ping = 5,
    Pong = 6,
};
enum class UniverseTag : std::uint8_t { Bit = 1, Word = 2 };

/// Verdict shape on the wire. The Engine's four Want values map onto
/// three: DictionarySweep is Traces over pre-placed instances (the
/// placement happens coordinator-side, so the wire never needs to know).
enum class WantTag : std::uint8_t { Detects = 1, DetectsAll = 2, Traces = 3 };

/// One shard query: evaluate `want` for the population slice
/// [range_begin, range_end) shipped in `bit_faults` / `word_faults`.
struct WireQuery {
    std::uint64_t id{0};
    UniverseTag universe{UniverseTag::Bit};
    WantTag want{WantTag::Detects};
    std::uint64_t range_begin{0};
    std::uint64_t range_end{0};
    march::MarchTest test;
    // Bit universe:
    sim::RunOptions bit_opts{};
    std::vector<sim::InjectedFault> bit_faults;
    // Word universe:
    word::WordRunOptions word_opts{};
    std::vector<word::Background> backgrounds;
    std::vector<word::InjectedBitFault> word_faults;
};

/// One shard result, echoing the query's id/universe/want/range.
struct WireResult {
    std::uint64_t id{0};
    UniverseTag universe{UniverseTag::Bit};
    WantTag want{WantTag::Detects};
    std::uint64_t range_begin{0};
    std::uint64_t range_end{0};
    std::vector<bool> verdicts;  ///< Detects (packed as 64-bit masks)
    bool all{true};              ///< DetectsAll
    std::vector<sim::RunTrace> traces;            ///< Traces, bit universe
    std::vector<word::WordRunTrace> word_traces;  ///< Traces, word universe
};

/// A worker-side failure for query `id`.
struct WireFault {
    std::uint64_t id{0};
    std::string message;
};

/// Frame-version check (both directions: offer and echo).
struct WireHello {
    int version{kFrameVersion};
};

/// Heartbeat probe / reply; the nonce matches a Pong to its Ping.
struct WirePing {
    std::uint64_t nonce{0};
};

/// A decoded payload: `type` selects which member is meaningful.
struct Message {
    MessageType type{MessageType::Error};
    WireQuery query;
    WireResult result;
    WireFault error;
    WireHello hello;
    WirePing ping;  ///< Ping and Pong both land here
};

[[nodiscard]] std::vector<std::uint8_t> encode_query(const WireQuery& query);
[[nodiscard]] std::vector<std::uint8_t> encode_result(const WireResult& result);
[[nodiscard]] std::vector<std::uint8_t> encode_error(const WireFault& error);
[[nodiscard]] std::vector<std::uint8_t> encode_hello(const WireHello& hello);
[[nodiscard]] std::vector<std::uint8_t> encode_ping(const WirePing& ping);
[[nodiscard]] std::vector<std::uint8_t> encode_pong(const WirePing& pong);

/// Decodes one payload. Throws WireFormatError on version mismatch,
/// unknown tags, truncation or trailing bytes.
[[nodiscard]] Message decode_message(std::span<const std::uint8_t> payload);

}  // namespace mtg::net
