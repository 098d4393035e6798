// A fleet worker that speaks the handshake and the scenario exchange
// honestly, waits for kRun, then sends one well-formed frame naming a shard
// past the end of any fleet. fleet_proc_test runs it in exec mode as
//
//   fleet_forged_worker <kCheckpoint|kMigrated|kRestored|kResult> <fd>
//
// and expects the coordinator to fail the run with a typed FleetError.
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "fleet/wire.hpp"

int main(int argc, char** argv) {
  using namespace aroma::fleet;
  if (argc != 3) return 64;
  const std::string frame = argv[1];
  Channel chan(std::atoi(argv[2]));
  chan.send(MsgType::kHello, [](WireWriter& w) {
    Hello h;
    h.pid = static_cast<std::uint32_t>(::getpid());
    h.encode(w);
  });
  Frame f;
  do {
    if (chan.recv(f, -1) == RecvStatus::kEof) return 1;
  } while (f.type != MsgType::kScenario);
  chan.send(MsgType::kScenarioAck, [](WireWriter& w) {
    w.u8(1);
    w.str("");
  });
  // Forge only once the coordinator has dealt the shards and is polling
  // for worker frames, as a real worker's frames arrive.
  do {
    if (chan.recv(f, -1) == RecvStatus::kEof) return 1;
  } while (f.type != MsgType::kRun);

  constexpr std::uint64_t kShard = 1'000'000;
  const std::vector<std::uint8_t> blob = {1, 2, 3};
  if (frame == "kCheckpoint") {
    chan.send(MsgType::kCheckpoint, [&](WireWriter& w) {
      w.u64(kShard);
      w.i64(0);  // captured
      w.u64(0);  // cadence index
      w.bytes(blob);
    });
  } else if (frame == "kMigrated") {
    chan.send(MsgType::kMigrated, [&](WireWriter& w) {
      w.u64(kShard);
      w.i64(0);  // captured
      w.u8(1);   // ok
      w.bytes(blob);
    });
  } else if (frame == "kRestored") {
    chan.send(MsgType::kRestored, [](WireWriter& w) {
      w.u64(kShard);
      w.u8(0);  // fresh
    });
  } else if (frame == "kResult") {
    chan.send(MsgType::kResult, [&](WireWriter& w) {
      w.u64(kShard);
      w.u64(0);  // fingerprint
      w.u64(0);  // events
      w.i64(0);  // now
      w.u8(0);   // no metrics
      w.bytes({});
    });
  } else {
    return 64;
  }
  // Stay up until the coordinator hangs up, so the frame, not an EOF, is
  // what it answers.
  while (chan.recv(f, -1) != RecvStatus::kEof) {
  }
  return 0;
}
