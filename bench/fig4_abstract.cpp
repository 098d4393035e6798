// FIG4 — the abstract layer (paper Figure 4).
//
// "The key issue ... is maintaining consistency between the user's
// reasoning and expectations and the logic and state of the application."
//
//   Table A: conceptual burden — task success, abandonment, time and
//            errors vs. procedure length and difficulty, per persona.
//   Table B: mental-model divergence of the naive prior against the real
//            Smart Projector machine, and how usage repairs it at
//            different learning rates.
//   Table C: session protection — hijack rejections and lease recoveries
//            under multi-user contention for one projector.
#include <cstdio>
#include <functional>
#include <memory>

#include "app/session.hpp"
#include "bench/common.hpp"
#include "sim/stats.hpp"
#include "user/agent.hpp"
#include "user/faculties.hpp"
#include "user/mental_model.hpp"
#include "user/planner.hpp"

namespace {

using namespace aroma;

std::vector<user::ProcedureStep> synthetic_procedure(int steps,
                                                     double difficulty) {
  std::vector<user::ProcedureStep> v;
  for (int i = 0; i < steps; ++i) {
    v.push_back({"step-" + std::to_string(i), nullptr, difficulty, false});
  }
  return v;
}

struct TaskStats {
  double success_rate = 0.0;
  double abandon_rate = 0.0;
  double mean_time_s = 0.0;
  double mean_errors = 0.0;
};

TaskStats run_tasks(const user::Faculties& persona, int steps,
                    double difficulty, int trials) {
  sim::Accumulator success, abandon, time_s, errors;
  for (int t = 0; t < trials; ++t) {
    sim::World w(1000 + static_cast<std::uint64_t>(t) * 7);
    user::UserAgent agent(w, "subject", persona);
    user::TaskOutcome outcome;
    agent.attempt(synthetic_procedure(steps, difficulty),
                  [&](const user::TaskOutcome& o) { outcome = o; });
    w.sim().run();
    success.add(outcome.success ? 1.0 : 0.0);
    abandon.add(outcome.abandoned ? 1.0 : 0.0);
    time_s.add(outcome.duration.seconds());
    errors.add(static_cast<double>(outcome.errors));
  }
  return {success.mean(), abandon.mean(), time_s.mean(), errors.mean()};
}

void table_a_burden() {
  benchsup::table_header(
      "Table A: task outcome vs procedure burden (100 trials each)",
      {"persona", "steps", "difficulty", "success", "abandon", "time-s",
       "errors"});
  struct P {
    const char* name;
    user::Faculties f;
  };
  const P personas[] = {
      {"computer-sci", user::personas::computer_scientist()},
      {"office-worker", user::personas::office_worker()},
      {"novice", user::personas::novice()},
  };
  for (const auto& p : personas) {
    for (const auto& [steps, difficulty] :
         std::vector<std::pair<int, double>>{
             {1, 0.1}, {3, 0.3}, {6, 0.45}, {6, 0.7}, {10, 0.7}}) {
      const auto r = run_tasks(p.f, steps, difficulty, 100);
      benchsup::table_row(std::string(p.name), static_cast<double>(steps),
                          difficulty, r.success_rate, r.abandon_rate,
                          r.mean_time_s, r.mean_errors);
    }
  }
}

void table_b_mental_models() {
  benchsup::table_header(
      "Table B: naive-prior divergence vs usage rounds (smart projector "
      "machine)",
      {"learning-rate", "rounds-0", "rounds-2", "rounds-5", "rounds-10"});
  const user::Automaton truth = user::smart_projector_truth();
  const char* kSessionActions[] = {
      "start-vnc", "acquire-projection", "start-projection",
      "acquire-control", "power-on", "stop-projection", "release-projection",
      "release-control", "stop-vnc"};
  for (double rate : {0.1, 0.3, 0.8}) {
    sim::Accumulator div_at[4];
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
      user::MentalModel belief(truth, user::smart_projector_naive_prior(),
                               rate);
      sim::Rng rng(seed);
      int state = truth.find_state("v0p0j0c0");
      int round = 0;
      auto record = [&](int slot) { div_at[slot].add(belief.divergence()); };
      record(0);
      for (round = 1; round <= 10; ++round) {
        for (const char* action : kSessionActions) {
          const int next = truth.next(state, action);
          belief.observe(state, action, next, rng);
          state = next;
        }
        if (round == 2) record(1);
        if (round == 5) record(2);
        if (round == 10) record(3);
      }
    }
    benchsup::table_row(rate, div_at[0].mean(), div_at[1].mean(),
                        div_at[2].mean(), div_at[3].mean());
  }
}

void table_c_sessions() {
  benchsup::table_header(
      "Table C: one projector, contending users (600 s simulated)",
      {"users", "acquisitions", "hijacks-blocked", "lease-recoveries"});
  for (int users : {2, 4, 8}) {
    sim::World w(50 + static_cast<std::uint64_t>(users));
    app::SessionManager::Params sp;
    sp.lease = sim::Time::sec(45);
    app::SessionManager session(w, "projector", sp);
    sim::Rng rng = w.fork_rng(3);

    // Each user tries to grab the projector at random intervals, holds it
    // for a while, and forgets to release 30% of the time.
    for (int u = 1; u <= users; ++u) {
      auto behave = std::make_shared<std::function<void()>>();
      auto& world = w;
      *behave = [&session, &world, &rng, u, behave]() {
        const auto token = session.acquire(static_cast<std::uint64_t>(u));
        if (token) {
          const double hold = rng.uniform(20.0, 120.0);
          const bool forgets = rng.bernoulli(0.3);
          const app::SessionToken tok = *token;
          if (!forgets) {
            world.sim().schedule_in(sim::Time::sec(hold),
                                    [&session, tok] { session.release(tok); });
          } else {
            // Renew a couple of times, then walk away.
            world.sim().schedule_in(sim::Time::sec(20),
                                    [&session, tok] { session.renew(tok); });
          }
        }
        world.sim().schedule_in(sim::Time::sec(rng.uniform(30.0, 90.0)),
                                *behave);
      };
      w.sim().schedule_in(sim::Time::sec(rng.uniform(0.0, 30.0)), *behave);
    }
    w.sim().run_until(sim::Time::sec(600));
    benchsup::table_row(static_cast<double>(users),
                        static_cast<double>(session.stats().acquisitions),
                        static_cast<double>(session.stats().rejections),
                        static_cast<double>(session.stats().expirations));
  }
}

/// Model-driven behaviour: a user plans over their belief and debugs their
/// way to "projecting with control" on the real machine. The expert's 4
/// actions are the floor; the naive prior pays for every wrong belief.
void table_d_debugging() {
  benchsup::table_header(
      "Table D: plan-act-repair to the goal state (50 users each)",
      {"prior", "session", "actions", "surprises", "reached"});
  const user::Automaton truth = user::smart_projector_truth();
  const int start = truth.find_state("v0p0j0c0");
  const int goal = truth.find_state("v1p1j1c1");

  struct PriorCase {
    const char* name;
    std::function<user::Automaton()> make;
  };
  const PriorCase priors[] = {
      {"expert", [&] { return truth; }},
      {"naive", [] { return user::smart_projector_naive_prior(); }},
      {"blank", [] { return user::Automaton{}; }},  // no model at all
  };
  for (const PriorCase& prior : priors) {
    // Track three consecutive sessions per simulated user.
    sim::Accumulator actions[3], surprises[3], reached[3];
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
      user::MentalModel belief(truth, prior.make(), 0.8);
      sim::Rng rng(seed * 17);
      for (int session = 0; session < 3; ++session) {
        const auto out = user::execute_towards(truth, belief, start, goal,
                                               rng, /*max_actions=*/120,
                                               /*exploration_budget=*/40);
        actions[session].add(out.actions_taken);
        surprises[session].add(out.surprises);
        reached[session].add(out.reached ? 1.0 : 0.0);
        (void)user::execute_towards(truth, belief, goal, start, rng,
                                    /*max_actions=*/120,
                                    /*exploration_budget=*/40);
      }
    }
    for (int session = 0; session < 3; ++session) {
      benchsup::table_row(std::string(prior.name),
                          static_cast<double>(session + 1),
                          actions[session].mean(), surprises[session].mean(),
                          reached[session].mean());
    }
  }
}

}  // namespace

int main() {
  std::printf("== FIG4: abstract layer — mental models vs application ==\n");
  table_a_burden();
  table_b_mental_models();
  table_c_sessions();
  table_d_debugging();
  return 0;
}
