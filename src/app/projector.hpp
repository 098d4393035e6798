// The Smart Projector: the paper's challenge application.
//
// Two separately-sessioned services exported through Jini discovery, as in
// the prototype:
//   * projection — the presenter's laptop display is mirrored to the
//     projector (the adapter runs an RFB viewer against the laptop's
//     RFB server, then drives the projector panel with the replica);
//   * control — power / input / brightness commands.
//
// The deliberate conceptual burden of the prototype is preserved: a
// presenter must (1) run the RFB server on the laptop, (2) acquire and
// start the projection client, and (3) acquire the control client — and
// must stop/release both when done. FIG4 measures what this burden does to
// real users.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "app/session.hpp"
#include "disco/jini.hpp"
#include "net/stack.hpp"
#include "net/stream.hpp"
#include "rfb/protocol.hpp"
#include "rfb/workload.hpp"
#include "sim/world.hpp"

namespace aroma::snap {
class SectionWriter;
class SectionReader;
}  // namespace aroma::snap

namespace aroma::app {

inline constexpr net::Port kProjectionPort = 5800;
inline constexpr net::Port kControlPort = 5801;
inline constexpr net::Port kVncPort = 5900;

/// Service type strings used in discovery.
inline constexpr const char* kProjectionType = "projector/display";
inline constexpr const char* kControlType = "projector/control";

enum class ProjMsg : std::uint8_t {
  kAcquire = 1,     // u32 reply-token
  kAcquireResp,     // u32 reply-token, u8 ok, u64 session
  kStart,           // u64 session, u64 rfb-server node  (projection only)
  kStartResp,       // u8 ok
  kStop,            // u64 session
  kRelease,         // u64 session
  kRenew,           // u64 session
  kCommand,         // u64 session, u8 cmd, i32 arg     (control only)
  kCommandResp,     // u8 ok, u8 cmd
};

enum class ProjectorCommand : std::uint8_t {
  kPowerOn = 1, kPowerOff, kSelectInput, kBrightness
};

/// Observable state of the projector hardware.
struct ProjectorState {
  bool powered = false;
  int input = 0;
  int brightness = 70;
  bool projecting = false;   // a projection stream is live
};

struct ProjectorServiceStats {
  std::uint64_t acquire_ok = 0;
  std::uint64_t acquire_busy = 0;      // hijack attempts rejected
  std::uint64_t commands_ok = 0;
  std::uint64_t commands_rejected = 0; // no valid session
  std::uint64_t projections_started = 0;
  std::uint64_t projections_stopped = 0;
};

/// Device-side implementation (runs on the Aroma adapter node).
class SmartProjector {
 public:
  struct Params {
    SessionManager::Params session{};
  };

  SmartProjector(sim::World& world, net::NetStack& stack);
  SmartProjector(sim::World& world, net::NetStack& stack, Params params);
  ~SmartProjector();
  SmartProjector(const SmartProjector&) = delete;
  SmartProjector& operator=(const SmartProjector&) = delete;

  /// Registers both services with the lookup service via `jini`.
  void export_services(disco::JiniClient& jini,
                       std::function<void(bool)> done = {});

  const ProjectorState& state() const { return state_; }
  const ProjectorServiceStats& stats() const { return stats_; }
  SessionManager& projection_session() { return projection_session_; }
  SessionManager& control_session() { return control_session_; }

  /// The replica currently being projected (null before projection starts).
  const rfb::Framebuffer* projected() const {
    return viewer_ && viewer_->initialized() ? &viewer_->replica() : nullptr;
  }
  const rfb::RfbClient* viewer() const { return viewer_.get(); }

  // --- checkpoint/restore (see src/snap) ------------------------------------
  // save()/restore() cover the projector's own state (hardware state,
  // service stats, both session managers). The stream manager and viewer
  // are exposed so the checkpoint harness can serialize them into the
  // stream/RFB sections alongside their peers.
  void save(snap::SectionWriter& w) const;
  void restore(snap::SectionReader& r);
  net::StreamManager* stream_manager() { return streams_.get(); }
  rfb::RfbClient* viewer_client() { return viewer_.get(); }

 private:
  void on_projection_msg(const net::Datagram& dg);
  void on_control_msg(const net::Datagram& dg);
  void start_projection(net::NodeId rfb_node);
  void stop_projection();

  sim::World& world_;
  net::NetStack& stack_;
  Params params_;
  SessionManager projection_session_;
  SessionManager control_session_;
  ProjectorState state_;
  ProjectorServiceStats stats_;
  std::unique_ptr<net::StreamManager> streams_;
  std::shared_ptr<net::StreamConnection> viewer_conn_;
  std::unique_ptr<rfb::RfbClient> viewer_;
};

/// Client for one sessioned projector service (projection or control).
/// Handles acquire / renew / release; the projection variant also starts
/// and stops the display stream.
class ProjectorClient {
 public:
  using Ack = std::function<void(bool ok)>;

  /// `service_port` is kProjectionPort or kControlPort.
  ProjectorClient(sim::World& world, net::NetStack& stack,
                  net::NodeId projector_node, net::Port service_port);
  ~ProjectorClient();

  /// Acquire the session (rejected while another client holds it).
  void acquire(Ack cb);
  /// Projection only: tell the adapter to pull frames from `rfb_node`.
  void start_projection(net::NodeId rfb_node, Ack cb);
  void stop_projection();
  /// Control only.
  void command(ProjectorCommand cmd, std::int32_t arg, Ack cb);
  /// Release the session. Safe to skip — the lease will expire — but
  /// skipping keeps the projector busy for everyone else meanwhile.
  void release();

  bool has_session() const { return session_.has_value(); }

  // --- checkpoint/restore (see src/snap) ------------------------------------
  // Pending acquire/start/command exchanges hold user callbacks (code), so
  // the client is only checkpointable with none in flight. The renewal
  // timer is a PeriodicTimer, re-armed verbatim.
  bool snap_quiescent(std::string* why) const;
  void save(snap::SectionWriter& w) const;
  void restore(snap::SectionReader& r);

 private:
  void on_datagram(const net::Datagram& dg);
  void send_renew();

  sim::World& world_;
  net::NetStack& stack_;
  net::NodeId projector_;
  net::Port service_port_;
  net::Port local_port_;
  std::optional<SessionToken> session_;
  std::uint32_t next_token_ = 1;
  std::map<std::uint32_t, Ack> pending_acquire_;
  Ack pending_start_;
  Ack pending_command_;
  std::unique_ptr<sim::PeriodicTimer> renewer_;
};

/// Laptop-side presenter endpoint: the screen framebuffer plus the RFB
/// server the projector pulls from ("the VNC server must also be started
/// on the laptop for projection to succeed").
class PresenterDisplay {
 public:
  PresenterDisplay(sim::World& world, net::NetStack& stack, int width,
                   int height);
  PresenterDisplay(sim::World& world, net::NetStack& stack, int width,
                   int height, rfb::RfbServer::Params rfb_params);

  /// Starts accepting viewer connections (the "VNC server" switch).
  void start_server();
  bool server_running() const { return accepting_; }

  rfb::Framebuffer& screen() { return screen_; }
  /// Applies one workload step and nudges the server.
  void apply(rfb::ScreenWorkload& workload);

  const rfb::RfbServer* server() const { return server_.get(); }

  // --- checkpoint/restore (see src/snap) ------------------------------------
  // The display's own persistent state is just the accepting flag (the
  // server and connection are structural, rebuilt by warmup and validated
  // on restore). Screen pixels and the RFB server serialize into the pixel
  // and RFB sections via these accessors.
  void save(snap::SectionWriter& w) const;
  void restore(snap::SectionReader& r);
  net::StreamManager* stream_manager() { return streams_.get(); }
  rfb::RfbServer* server_mutable() { return server_.get(); }

 private:
  sim::World& world_;
  net::NetStack& stack_;
  rfb::Framebuffer screen_;
  rfb::RfbServer::Params rfb_params_;
  std::unique_ptr<net::StreamManager> streams_;
  std::unique_ptr<rfb::RfbServer> server_;
  std::shared_ptr<net::StreamConnection> conn_;
  bool accepting_ = false;
};

}  // namespace aroma::app
