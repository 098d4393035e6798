// Tests for the LPC model library: layers, classifier, constraints,
// analyzer, harmony.
#include <gtest/gtest.h>

#include <algorithm>

#include "app/session.hpp"
#include "disco/jini.hpp"
#include "lpc/analyzer.hpp"
#include "lpc/constraints.hpp"
#include "lpc/entity.hpp"
#include "lpc/harmony.hpp"
#include "lpc/issue.hpp"
#include "lpc/layers.hpp"
#include "lpc/miner.hpp"
#include "env/environment.hpp"
#include "net/stack.hpp"
#include "obs/telemetry.hpp"
#include "phys/battery.hpp"
#include "phys/device.hpp"
#include "sim/world.hpp"

namespace aroma::lpc {
namespace {

// --- Layers --------------------------------------------------------------

TEST(Layers, NamesRoundTrip) {
  for (Layer l : kAllLayers) {
    Layer parsed;
    ASSERT_TRUE(parse_layer(to_string(l), parsed));
    EXPECT_EQ(parsed, l);
  }
  Layer dummy;
  EXPECT_FALSE(parse_layer("transport", dummy));
}

TEST(Layers, FacetsMatchFigureOne) {
  EXPECT_EQ(device_facet(Layer::kIntentional), "Design Purpose");
  EXPECT_EQ(user_facet(Layer::kIntentional), "User Goals");
  EXPECT_EQ(device_facet(Layer::kAbstract), "Application");
  EXPECT_EQ(user_facet(Layer::kAbstract), "Mental Models");
  EXPECT_EQ(user_facet(Layer::kResource), "User Faculties");
  EXPECT_EQ(user_facet(Layer::kPhysical), "Physical User");
  EXPECT_NE(std::string(device_facet(Layer::kResource)).find("Mem"),
            std::string::npos);
}

TEST(Layers, ConstraintPhrasesMatchFigures) {
  EXPECT_EQ(constraint_phrase(Layer::kPhysical), "must be compatible with");
  EXPECT_EQ(constraint_phrase(Layer::kResource), "must not be frustrated by");
  EXPECT_EQ(constraint_phrase(Layer::kAbstract), "must be consistent with");
  EXPECT_EQ(constraint_phrase(Layer::kIntentional), "must be in harmony with");
}

TEST(Layers, TemporalSpecificityGradient) {
  // "Change occurs more slowly at the lower levels": user-side periods must
  // strictly shrink going up from physical to intentional.
  EXPECT_GT(user_side_change_period(Layer::kPhysical),
            user_side_change_period(Layer::kResource));
  EXPECT_GT(user_side_change_period(Layer::kResource),
            user_side_change_period(Layer::kAbstract));
  EXPECT_GT(user_side_change_period(Layer::kAbstract),
            user_side_change_period(Layer::kIntentional));
  // Device side: hardware outlives OS images outlives app releases.
  EXPECT_GT(device_side_change_period(Layer::kPhysical),
            device_side_change_period(Layer::kResource));
  EXPECT_GT(device_side_change_period(Layer::kResource),
            device_side_change_period(Layer::kAbstract));
}

// --- IssueClassifier: parameterized over paper-style issues -----------------

struct ClassifierCase {
  const char* text;
  Layer expected;
};

// Without a printer gtest shows the raw bytes of the case, whose text
// pointer moves with address-space randomisation, so every test discovery
// would give the cases new names.
void PrintTo(const ClassifierCase& c, std::ostream* os) {
  *os << to_string(c.expected);
}

class ClassifierSuite : public ::testing::TestWithParam<ClassifierCase> {};

TEST_P(ClassifierSuite, AssignsExpectedLayer) {
  static const IssueClassifier classifier;
  const auto c = classifier.classify(GetParam().text);
  EXPECT_EQ(c.layer, GetParam().expected) << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    PaperIssues, ClassifierSuite,
    ::testing::Values(
        // Environment-layer issues straight from the paper's discussion.
        ClassifierCase{"many devices operating in the 2.4 GHz radio band "
                       "cause interference",
                       Layer::kEnvironment},
        ClassifierCase{"background noise becomes objectionable when voice "
                       "recognition is used",
                       Layer::kEnvironment},
        ClassifierCase{"voice devices are socially inappropriate in a "
                       "cramped office with cubicles",
                       Layer::kEnvironment},
        // Physical layer.
        ClassifierCase{"the low bandwidth of current wireless adapters "
                       "prevents displaying rapid animation",
                       Layer::kPhysical},
        ClassifierCase{"controlling the projector requires physical "
                       "proximity to the laptop",
                       Layer::kPhysical},
        ClassifierCase{"biometric identification depends on signals from "
                       "the user's body",
                       Layer::kPhysical},
        // Resource layer.
        ClassifierCase{"we assume users can fix the wireless network, the "
                       "Linux-based adapter, and the lookup service",
                       Layer::kResource},
        ClassifierCase{"the user must have Java and Jini available on the "
                       "laptop",
                       Layer::kResource},
        ClassifierCase{"networking features should be automatically "
                       "available and self-configuring",
                       Layer::kResource},
        ClassifierCase{"all users are assumed to speak English",
                       Layer::kResource},
        // Abstract layer.
        ClassifierCase{"the user must understand that both clients must be "
                       "started in order to project",
                       Layer::kAbstract},
        ClassifierCase{"session objects prevent another user from "
                       "hijacking the projector",
                       Layer::kAbstract},
        ClassifierCase{"icons on the desktop should change their "
                       "appearance when services become unavailable",
                       Layer::kAbstract},
        ClassifierCase{"users who forget to relinquish control of the "
                       "projector need recovery without an administrator",
                       Layer::kAbstract},
        // Intentional layer.
        ClassifierCase{"the design is not in harmony with the needs of a "
                       "casual user expecting a commercial product",
                       Layer::kIntentional},
        ClassifierCase{"technically superior products fail when the "
                       "purpose ignores user goals",
                       Layer::kIntentional}),
    [](const ::testing::TestParamInfo<ClassifierCase>& info) {
      return "case_" + std::to_string(info.index);
    });

TEST(IssueClassifier, ConfidenceReflectsMargin) {
  IssueClassifier c;
  const auto strong = c.classify("2.4 GHz interference in the radio band");
  const auto vague = c.classify("something feels wrong");
  EXPECT_GT(strong.confidence, 0.5);
  EXPECT_DOUBLE_EQ(vague.confidence, 0.0);
}

TEST(IssueClassifier, CustomTermsExtendVocabulary) {
  IssueClassifier c;
  c.add_term(Layer::kPhysical, "flux capacitor", 5.0);
  EXPECT_EQ(c.classify("the flux capacitor is loose").layer, Layer::kPhysical);
}

TEST(IssueLog, CountsAndSeverity) {
  IssueLog log;
  log.add({0, "a", Layer::kPhysical, 0.5, "", true});
  log.add({0, "b", Layer::kPhysical, 0.25, "", true});
  log.add({0, "c", Layer::kIntentional, 1.0, "", true});
  EXPECT_EQ(log.count_at(Layer::kPhysical), 2u);
  EXPECT_EQ(log.count_at(Layer::kAbstract), 0u);
  EXPECT_DOUBLE_EQ(log.total_severity_at(Layer::kPhysical), 0.75);
  EXPECT_EQ(log.issues()[0].id, 1u);
}

// --- Conceptual burden ----------------------------------------------------

TEST(ConceptualBurden, MonotoneInStepsAndDifficulty) {
  ApplicationFacet app;
  app.workflow_steps = 2;
  app.avg_step_difficulty = 0.3;
  const double base = conceptual_burden(app);
  app.workflow_steps = 8;
  const double more_steps = conceptual_burden(app);
  app.avg_step_difficulty = 0.9;
  const double harder = conceptual_burden(app);
  EXPECT_LT(base, more_steps);
  EXPECT_LT(more_steps, harder);
  EXPECT_GT(base, 0.0);
  EXPECT_LT(harder, 1.0);
}

TEST(ConceptualBurden, FeedbackAndLeasesRelieveBurden) {
  ApplicationFacet app;
  app.workflow_steps = 6;
  app.avg_step_difficulty = 0.5;
  const double bare = conceptual_burden(app);
  app.gives_state_feedback = true;
  const double with_feedback = conceptual_burden(app);
  app.sessions_leased = true;
  const double with_both = conceptual_burden(app);
  EXPECT_LT(with_feedback, bare);
  EXPECT_LT(with_both, with_feedback);
}

// --- Case study + analyzer ---------------------------------------------

TEST(CaseStudy, ModelIsWellFormed) {
  const SystemModel m = smart_projector_case_study();
  EXPECT_EQ(m.devices.size(), 4u);
  EXPECT_EQ(m.users.size(), 2u);
  ASSERT_FALSE(m.interactions.empty());
  for (const auto& ia : m.interactions) {
    ASSERT_LT(ia.user_index, m.users.size());
    ASSERT_LT(ia.device_index, m.devices.size());
  }
  for (const auto& dep : m.dependencies) {
    ASSERT_LT(dep.from_device, m.devices.size());
    ASSERT_LT(dep.to_device, m.devices.size());
  }
}

TEST(CaseStudy, AnalysisReproducesPaperFindings) {
  const SystemModel m = smart_projector_case_study();
  Analyzer analyzer;
  const AnalysisReport report = analyzer.analyze(m);

  // The paper finds issues at every one of these layers for the prototype.
  EXPECT_GT(report.count_at(Layer::kEnvironment), 0u);   // 2.4 GHz density
  EXPECT_GT(report.count_at(Layer::kPhysical), 0u);      // animation / tether
  EXPECT_GT(report.count_at(Layer::kResource), 0u);      // faculty overreach
  EXPECT_GT(report.count_at(Layer::kAbstract), 0u);      // conceptual burden
  EXPECT_GT(report.count_at(Layer::kIntentional), 0u);   // presenter harmony

  // The presenter's faculty mismatch on troubleshooting must be present.
  bool troubleshooting = false;
  for (const auto* f : report.at_layer(Layer::kResource)) {
    troubleshooting |=
        f->description.find("infrastructure failures") != std::string::npos;
  }
  EXPECT_TRUE(troubleshooting);

  // The researcher (intended user) must NOT appear in intentional findings.
  for (const auto* f : report.at_layer(Layer::kIntentional)) {
    EXPECT_EQ(f->description.find("aroma-researcher"), std::string::npos);
  }
}

TEST(CaseStudy, CommercialVariantClearsMostFindings) {
  SystemModel m = smart_projector_case_study();
  // Apply the paper's own future-work fixes: one-step app, feedback,
  // reasonable assumptions, commercial purpose.
  for (auto& d : m.devices) {
    if (d.application && d.application->workflow_steps > 0) {
      d.application->workflow_steps = 1;
      d.application->avg_step_difficulty = 0.1;
      d.application->gives_state_feedback = true;
      d.resources.assumed_user = user::commercial_product_requirements();
      d.resources.self_configuring = true;
      d.purpose = user::commercial_product_purpose();
    }
  }
  Analyzer analyzer;
  const AnalysisReport before =
      analyzer.analyze(smart_projector_case_study());
  const AnalysisReport after = analyzer.analyze(m);
  EXPECT_LT(after.findings.size(), before.findings.size());
  // The presenter is now served; any remaining intentional finding can only
  // concern the researcher (whose goals the commercial redesign drops).
  for (const auto* f : after.at_layer(Layer::kIntentional)) {
    EXPECT_EQ(f->description.find("presenter's goals"), std::string::npos)
        << f->description;
  }
  EXPECT_LT(after.count_at(Layer::kResource),
            before.count_at(Layer::kResource));
}

TEST(Analyzer, ReportRendersAllLayerSections) {
  Analyzer analyzer;
  const auto report = analyzer.analyze(smart_projector_case_study());
  const std::string text = report.render();
  for (Layer l : kAllLayers) {
    EXPECT_NE(text.find("[" + std::string(to_string(l)) + " layer]"),
              std::string::npos);
  }
  EXPECT_NE(text.find("must be in harmony with"), std::string::npos);
}

TEST(Analyzer, AbsorbsClassifiedIssues) {
  Analyzer analyzer;
  AnalysisReport report;
  report.system_name = "test";
  IssueLog log;
  Issue i;
  i.description = "2.4 GHz interference degrades the wireless link";
  i.severity = 0.8;
  log.add(i);
  analyzer.absorb_issues(report, log);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].layer, Layer::kEnvironment);
  EXPECT_DOUBLE_EQ(report.findings[0].severity, 0.8);
}

TEST(Analyzer, LayerTableRendersFigureOne) {
  const std::string table = render_layer_table();
  EXPECT_NE(table.find("Design Purpose"), std::string::npos);
  EXPECT_NE(table.find("User Goals"), std::string::npos);
  EXPECT_NE(table.find("Mem | Sto | Exe | UI | Net"), std::string::npos);
  EXPECT_NE(table.find("environment"), std::string::npos);
}

TEST(CaseStudy, UiLanguagesClearLanguageFindings) {
  SystemModel m = smart_projector_case_study();
  UserEntity french;
  french.name = "visiteur";
  french.faculties = user::personas::non_english_speaker();
  french.goals = user::presenter_goals();
  m.users.push_back(french);
  m.interactions.push_back({m.users.size() - 1, 0, 0.5});

  Analyzer analyzer;
  auto count_language_findings = [&](const SystemModel& model) {
    const AnalysisReport report = analyzer.analyze(model);
    std::size_t n = 0;
    for (const auto* f : report.at_layer(Layer::kResource)) {
      if (f->description.find("language") != std::string::npos) ++n;
    }
    return n;
  };
  const std::size_t before = count_language_findings(m);
  ASSERT_GT(before, 0u);
  // Ship a French catalog on the laptop: the finding disappears.
  m.devices[0].resources.ui_languages = {"en", "fr"};
  EXPECT_EQ(count_language_findings(m), before - 1);
}

// --- Live issue mining ------------------------------------------------------

TEST(SpanIssueMiner, MinesFourLiveFailuresAtTheirDeclaredLayers) {
  // Drive four real failures through the stack. Each emitter declares its
  // own LPC layer and level on a span instant; the miner files one issue
  // per failure with the emitter's layer, no text classification involved.
  sim::World w(3);
  obs::Telemetry telemetry(w);
  IssueLog log;
  SpanIssueMiner miner(telemetry.spans(), log);
  env::Environment e(w);
  phys::Device d(w, e, 1, phys::profiles::laptop(),
                 std::make_unique<env::StaticMobility>(env::Vec2{0, 0}));
  net::NetStack stack(w, d.mac());

  d.mac().send(99, 800, nullptr);  // a MAC sending to an absent peer
  phys::Battery battery(w, {.capacity_j = 1.0, .idle_power_w = 1.0});
  app::SessionManager session(w, "projector");
  ASSERT_TRUE(session.acquire(1).has_value());
  EXPECT_FALSE(session.acquire(2).has_value());  // second owner, busy
  disco::JiniClient jini(w, stack);  // no registrar anywhere
  jini.discover([](net::NodeId) {});
  w.sim().run_until(sim::Time::sec(10));
  EXPECT_TRUE(battery.depleted());  // idle load drained it to zero

  struct Expected {
    const char* name;
    Layer layer;
    sim::TraceLevel level;
  };
  const Expected expected[] = {
      {"phys.mac.drop_retry_limit", Layer::kPhysical, sim::TraceLevel::kWarn},
      {"phys.battery.depleted", Layer::kPhysical, sim::TraceLevel::kError},
      {"app.session.hijack_rejected", Layer::kAbstract,
       sim::TraceLevel::kWarn},
      {"disco.jini.discovery_exhausted", Layer::kResource,
       sim::TraceLevel::kWarn},
  };
  EXPECT_EQ(miner.mined(), 4u);
  ASSERT_EQ(log.issues().size(), 4u);
  for (const Expected& want : expected) {
    SCOPED_TRACE(want.name);
    ASSERT_EQ(telemetry.spans().count_with_name(want.name), 1u);
    const auto span = std::find_if(
        telemetry.spans().records().begin(), telemetry.spans().records().end(),
        [&](const obs::SpanRecord& r) { return r.name == want.name; });
    EXPECT_EQ(span->level, want.level);
    const auto issue =
        std::find_if(log.issues().begin(), log.issues().end(),
                     [&](const Issue& i) { return i.entity == want.name; });
    ASSERT_NE(issue, log.issues().end());
    EXPECT_EQ(issue->layer, want.layer);
    EXPECT_FALSE(issue->classified);  // declared by the emitter, not guessed
    EXPECT_EQ(issue->severity,
              want.level == sim::TraceLevel::kError ? 0.8 : 0.45);
  }
  // The busy session's name rides along as an arg.
  const auto hijack =
      std::find_if(log.issues().begin(), log.issues().end(), [](const Issue& i) {
        return i.entity == "app.session.hijack_rejected";
      });
  EXPECT_NE(hijack->description.find("session=projector"), std::string::npos);
}

// --- Harmony / adoption ------------------------------------------------

TEST(Harmony, AssessesEveryInteraction) {
  const SystemModel m = smart_projector_case_study();
  const auto assessments = assess_harmony(m, user::AdoptionModel{});
  EXPECT_EQ(assessments.size(), m.interactions.size());
  for (const auto& a : assessments) {
    EXPECT_GE(a.adoption_probability, 0.0);
    EXPECT_LE(a.adoption_probability, 1.0);
  }
}

TEST(Harmony, ResearcherAdoptsPrototypePresenterDoesNot) {
  const SystemModel m = smart_projector_case_study();
  const auto assessments = assess_harmony(m, user::AdoptionModel{});
  double presenter_laptop = -1.0, researcher_laptop = -1.0;
  for (const auto& a : assessments) {
    if (a.device != "presenter-laptop") continue;
    if (a.user == "presenter") presenter_laptop = a.adoption_probability;
    if (a.user == "aroma-researcher") researcher_laptop = a.adoption_probability;
  }
  ASSERT_GE(presenter_laptop, 0.0);
  ASSERT_GE(researcher_laptop, 0.0);
  // The paper's core intentional-layer claim, quantified.
  EXPECT_GT(researcher_laptop, presenter_laptop + 0.2);
}

TEST(Harmony, PopulationSimulationMonotoneInPurpose) {
  SystemModel proto = smart_projector_case_study();
  SystemModel commercial = proto;
  for (auto& d : commercial.devices) {
    if (d.application && d.application->workflow_steps > 0) {
      d.purpose = user::commercial_product_purpose();
      d.application->workflow_steps = 1;
      d.resources.assumed_user = user::commercial_product_requirements();
    }
  }
  // Keep only the presenter interaction for a clean comparison.
  proto.interactions.resize(1);
  commercial.interactions.resize(1);
  const auto a = simulate_adoption(proto, user::AdoptionModel{}, 2'000, 7);
  const auto b = simulate_adoption(commercial, user::AdoptionModel{}, 2'000, 7);
  EXPECT_GT(b, a + 200);  // commercial redesign wins decisively
  // Deterministic in the seed.
  EXPECT_EQ(simulate_adoption(proto, user::AdoptionModel{}, 500, 3),
            simulate_adoption(proto, user::AdoptionModel{}, 500, 3));
}

TEST(IssueLog, ShedIssueFilerRecordsResourceLayerIssue) {
  IssueLog log;
  const auto hook = shed_issue_filer(log, "jini-registrar-3");
  hook("registrar admission queue full: lookup shed under overload (1 shed "
       "so far)",
       0.7);
  ASSERT_EQ(log.issues().size(), 1u);
  const Issue& issue = log.issues()[0];
  EXPECT_EQ(issue.layer, Layer::kResource);
  EXPECT_DOUBLE_EQ(issue.severity, 0.7);
  EXPECT_EQ(issue.entity, "jini-registrar-3");
  EXPECT_EQ(log.count_at(Layer::kResource), 1u);
}

TEST(IssueClassifier, ServiceTierVocabularyLandsAtResourceLayer) {
  const IssueClassifier classifier;
  const auto c = classifier.classify(
      "registrar admission queue full: lookup shed under overload");
  EXPECT_EQ(c.layer, Layer::kResource);
  const auto f = classifier.classify(
      "federation delegation timed out against a dead peer registrar");
  EXPECT_EQ(f.layer, Layer::kResource);
}

}  // namespace
}  // namespace aroma::lpc
