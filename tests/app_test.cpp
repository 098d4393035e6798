// Tests for the abstract layer: sessions and the Smart Projector services
// end-to-end over the simulated network.
#include <gtest/gtest.h>

#include <memory>

#include "app/projector.hpp"
#include "app/session.hpp"
#include "env/environment.hpp"
#include "phys/device.hpp"
#include "rfb/workload.hpp"
#include "sim/world.hpp"

namespace aroma::app {
namespace {

// --- SessionManager ------------------------------------------------------

TEST(SessionManager, SingleOwnerSemantics) {
  sim::World w(1);
  SessionManager sm(w, "projector");
  const auto t1 = sm.acquire(100);
  ASSERT_TRUE(t1.has_value());
  EXPECT_TRUE(sm.busy());
  EXPECT_EQ(sm.owner(), std::optional<std::uint64_t>(100));

  // Second user is rejected: the hijack protection.
  EXPECT_FALSE(sm.acquire(200).has_value());
  EXPECT_EQ(sm.stats().rejections, 1u);

  // Same owner re-acquires the same session.
  EXPECT_EQ(sm.acquire(100), t1);

  EXPECT_TRUE(sm.release(*t1));
  EXPECT_FALSE(sm.busy());
  const auto t2 = sm.acquire(200);
  EXPECT_TRUE(t2.has_value());
  EXPECT_NE(*t2, *t1);
}

TEST(SessionManager, StaleTokenRejected) {
  sim::World w(1);
  SessionManager sm(w, "r");
  const auto t1 = sm.acquire(100);
  sm.release(*t1);
  EXPECT_FALSE(sm.release(*t1));
  EXPECT_FALSE(sm.renew(*t1));
  EXPECT_FALSE(sm.valid(*t1));
}

TEST(SessionManager, ForgottenSessionExpires) {
  sim::World w(1);
  SessionManager::Params p;
  p.lease = sim::Time::sec(30);
  SessionManager sm(w, "projector", p);
  std::vector<std::uint64_t> owner_changes;
  sm.set_owner_change_callback(
      [&](std::uint64_t o) { owner_changes.push_back(o); });
  (void)sm.acquire(100);
  w.sim().run_until(sim::Time::sec(100));
  EXPECT_FALSE(sm.busy());  // recovered without an administrator
  EXPECT_EQ(sm.stats().expirations, 1u);
  ASSERT_EQ(owner_changes.size(), 2u);
  EXPECT_EQ(owner_changes[0], 100u);
  EXPECT_EQ(owner_changes[1], 0u);
}

TEST(SessionManager, RenewalPreventsExpiry) {
  sim::World w(1);
  SessionManager::Params p;
  p.lease = sim::Time::sec(30);
  SessionManager sm(w, "projector", p);
  const auto t = sm.acquire(100);
  sim::PeriodicTimer renewer(w.sim(), sim::Time::sec(10),
                             [&] { sm.renew(*t); });
  renewer.start();
  w.sim().run_until(sim::Time::sec(300));
  EXPECT_TRUE(sm.busy());
  renewer.stop();
  w.sim().run_until(sim::Time::sec(400));
  EXPECT_FALSE(sm.busy());
}

// --- Smart Projector end-to-end ------------------------------------------

struct ProjectorWorld {
  ProjectorWorld() : world(3), environment(world) {
    adapter_dev = std::make_unique<phys::Device>(
        world, environment, 10, phys::profiles::aroma_adapter(),
        std::make_unique<env::StaticMobility>(env::Vec2{0, 0}));
    laptop_dev = std::make_unique<phys::Device>(
        world, environment, 20, phys::profiles::laptop(),
        std::make_unique<env::StaticMobility>(env::Vec2{6, 0}));
    rival_dev = std::make_unique<phys::Device>(
        world, environment, 30, phys::profiles::laptop(),
        std::make_unique<env::StaticMobility>(env::Vec2{0, 6}));
    adapter_stack = std::make_unique<net::NetStack>(world, adapter_dev->mac());
    laptop_stack = std::make_unique<net::NetStack>(world, laptop_dev->mac());
    rival_stack = std::make_unique<net::NetStack>(world, rival_dev->mac());
    projector = std::make_unique<SmartProjector>(world, *adapter_stack);
    display =
        std::make_unique<PresenterDisplay>(world, *laptop_stack, 160, 120);
  }

  void run_until(double sec) { world.sim().run_until(sim::Time::sec(sec)); }

  sim::World world;
  env::Environment environment;
  std::unique_ptr<phys::Device> adapter_dev, laptop_dev, rival_dev;
  std::unique_ptr<net::NetStack> adapter_stack, laptop_stack, rival_stack;
  std::unique_ptr<SmartProjector> projector;
  std::unique_ptr<PresenterDisplay> display;
};

TEST(SmartProjector, FullPresentationFlow) {
  ProjectorWorld pw;
  rfb::SlideDeckWorkload deck(4);
  pw.display->start_server();
  deck.step(pw.display->screen());

  ProjectorClient proj_client(pw.world, *pw.laptop_stack, 10,
                              kProjectionPort);
  bool acquired = false, started = false;
  proj_client.acquire([&](bool ok) { acquired = ok; });
  pw.run_until(1.0);
  ASSERT_TRUE(acquired);
  proj_client.start_projection(20, [&](bool ok) { started = ok; });
  pw.run_until(30.0);
  ASSERT_TRUE(started);
  EXPECT_TRUE(pw.projector->state().projecting);
  ASSERT_NE(pw.projector->projected(), nullptr);
  EXPECT_TRUE(
      pw.projector->projected()->same_content(pw.display->screen()));

  // Next slide propagates.
  pw.display->apply(deck);
  pw.run_until(60.0);
  EXPECT_TRUE(
      pw.projector->projected()->same_content(pw.display->screen()));
}

TEST(SmartProjector, ProjectionWithoutVncServerShowsNothing) {
  // "The VNC server must also be started on the laptop for projection to
  // succeed" — the adapter accepts the start command, but its viewer's
  // connection attempt dies against the missing server and nothing is
  // ever projected. This is precisely the wrong-order trap the paper's
  // abstract-layer analysis warns about.
  ProjectorWorld pw;
  // Note: pw.display exists but start_server() is never called.
  ProjectorClient proj_client(pw.world, *pw.laptop_stack, 10,
                              kProjectionPort);
  bool acquired = false, started = false;
  proj_client.acquire([&](bool ok) { acquired = ok; });
  pw.run_until(1.0);
  ASSERT_TRUE(acquired);
  proj_client.start_projection(20, [&](bool ok) { started = ok; });
  pw.run_until(120.0);
  EXPECT_TRUE(started);  // the projector-side accepted the request...
  EXPECT_EQ(pw.projector->projected(), nullptr);  // ...but no frame arrived

  // Starting the server afterwards does not retroactively heal the dead
  // connection: the user must redo start-projection (state the mental
  // model has to carry).
  pw.display->start_server();
  pw.run_until(240.0);
  EXPECT_EQ(pw.projector->projected(), nullptr);
  bool restarted = false;
  proj_client.start_projection(20, [&](bool ok) { restarted = ok; });
  pw.run_until(300.0);
  ASSERT_TRUE(restarted);
  ASSERT_NE(pw.projector->projected(), nullptr);
  EXPECT_TRUE(
      pw.projector->projected()->same_content(pw.display->screen()));
}

TEST(SmartProjector, SecondUserCannotHijackProjection) {
  ProjectorWorld pw;
  ProjectorClient first(pw.world, *pw.laptop_stack, 10, kProjectionPort);
  ProjectorClient rival(pw.world, *pw.rival_stack, 10, kProjectionPort);
  bool first_ok = false, rival_ok = true;
  first.acquire([&](bool ok) { first_ok = ok; });
  pw.run_until(1.0);
  rival.acquire([&](bool ok) { rival_ok = ok; });
  pw.run_until(2.0);
  EXPECT_TRUE(first_ok);
  EXPECT_FALSE(rival_ok);
  EXPECT_EQ(pw.projector->stats().acquire_busy, 1u);

  // After release, the rival can take over.
  first.release();
  pw.run_until(3.0);
  bool rival_retry = false;
  rival.acquire([&](bool ok) { rival_retry = ok; });
  pw.run_until(4.0);
  EXPECT_TRUE(rival_retry);
}

TEST(SmartProjector, ControlCommandsRequireSession) {
  ProjectorWorld pw;
  ProjectorClient ctrl(pw.world, *pw.laptop_stack, 10, kControlPort);
  bool cmd_ok = true;
  ctrl.command(ProjectorCommand::kPowerOn, 0, [&](bool ok) { cmd_ok = ok; });
  pw.run_until(1.0);
  EXPECT_FALSE(cmd_ok);  // no session yet -> local refusal

  bool acquired = false;
  ctrl.acquire([&](bool ok) { acquired = ok; });
  pw.run_until(2.0);
  ASSERT_TRUE(acquired);
  ctrl.command(ProjectorCommand::kPowerOn, 0, [&](bool ok) { cmd_ok = ok; });
  pw.run_until(3.0);
  EXPECT_TRUE(cmd_ok);
  EXPECT_TRUE(pw.projector->state().powered);

  ctrl.command(ProjectorCommand::kBrightness, 40, [&](bool ok) { cmd_ok = ok; });
  pw.run_until(4.0);
  EXPECT_TRUE(cmd_ok);
  EXPECT_EQ(pw.projector->state().brightness, 40);

  ctrl.command(ProjectorCommand::kPowerOff, 0, [](bool) {});
  pw.run_until(5.0);
  EXPECT_FALSE(pw.projector->state().powered);
}

TEST(SmartProjector, ProjectionAndControlSessionsAreIndependent) {
  ProjectorWorld pw;
  ProjectorClient proj(pw.world, *pw.laptop_stack, 10, kProjectionPort);
  ProjectorClient ctrl(pw.world, *pw.rival_stack, 10, kControlPort);
  bool proj_ok = false, ctrl_ok = false;
  proj.acquire([&](bool ok) { proj_ok = ok; });
  ctrl.acquire([&](bool ok) { ctrl_ok = ok; });
  pw.run_until(2.0);
  // Different users can hold the two services simultaneously.
  EXPECT_TRUE(proj_ok);
  EXPECT_TRUE(ctrl_ok);
}

TEST(SmartProjector, ForgottenSessionRecoversByLease) {
  ProjectorWorld pw;
  auto user = std::make_unique<ProjectorClient>(pw.world, *pw.laptop_stack,
                                                10, kProjectionPort);
  bool ok = false;
  user->acquire([&](bool a) { ok = a; });
  pw.run_until(1.0);
  ASSERT_TRUE(ok);
  EXPECT_TRUE(pw.projector->projection_session().busy());
  // The user walks away without releasing: destroying the client stops the
  // lease renewals, and the session must recover on its own.
  user.reset();
  pw.run_until(200.0);
  EXPECT_FALSE(pw.projector->projection_session().busy());
  EXPECT_GE(pw.projector->projection_session().stats().expirations, 1u);
}

TEST(SmartProjector, ExportsBothServicesToJini) {
  ProjectorWorld pw;
  // Put a registrar on the rival node.
  disco::JiniRegistrar registrar(pw.world, *pw.rival_stack);
  disco::JiniClient adapter_jini(pw.world, *pw.adapter_stack);
  bool exported = false;
  pw.projector->export_services(adapter_jini,
                                [&](bool ok) { exported = ok; });
  pw.run_until(5.0);
  ASSERT_TRUE(exported);
  EXPECT_EQ(registrar.registered_count(), 2u);
  const auto found =
      registrar.snapshot(disco::ServiceTemplate{"projector", {}});
  EXPECT_EQ(found.size(), 2u);
}

}  // namespace
}  // namespace aroma::app
