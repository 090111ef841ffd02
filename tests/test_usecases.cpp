// Tests for the use-case workloads: traffic (map matching, GMM), PTDR,
// energy prediction (Kernel Ridge), air quality, and the speed-prediction
// CNN. Each asserts the domain behaviour the paper relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <climits>
#include <cmath>
#include <cstdint>
#include <limits>

#include "frontend/condrust_parser.hpp"
#include "hls/scheduler.hpp"
#include "runtime/dfg_executor.hpp"
#include "usecases/airquality.hpp"
#include "usecases/energy.hpp"
#include "usecases/ptdr.hpp"
#include "usecases/speednet.hpp"
#include "usecases/traffic.hpp"

namespace tr = everest::usecases::traffic;
namespace pt = everest::usecases::ptdr;
namespace en = everest::usecases::energy;
namespace aq = everest::usecases::airquality;
namespace sn = everest::usecases::speednet;
namespace er = everest::runtime;

// ------------------------------------------------------------------ traffic

TEST(Traffic, NetworkGeometry) {
  auto net = tr::make_grid_network(4, 1.0, 1);
  // 2 * n * (n+1) segments on an n x n grid.
  EXPECT_EQ(net.segments.size(), 40u);
  for (const auto &s : net.segments) {
    EXPECT_NEAR(s.length_km(), 1.0, 1e-12);
    EXPECT_GE(s.speed_limit_kmh, 30.0);
    EXPECT_LE(s.speed_limit_kmh, 70.0);
  }
  // Distance from a point on the segment is ~0.
  const auto &s = net.segments[0];
  EXPECT_NEAR(s.distance_km(0.5 * (s.x1 + s.x2), 0.5 * (s.y1 + s.y2)), 0.0,
              1e-12);
}

TEST(Traffic, TraceFollowsNetwork) {
  auto net = tr::make_grid_network(6, 1.0, 2);
  auto trace = tr::make_trace(net, 50, 0.02, 3);
  ASSERT_EQ(trace.points.size(), 50u);
  ASSERT_EQ(trace.true_segments.size(), 50u);
  // Each point lies near its true segment.
  for (std::size_t i = 0; i < trace.points.size(); ++i) {
    const auto &seg =
        net.segments[static_cast<std::size_t>(trace.true_segments[i])];
    EXPECT_LT(seg.distance_km(trace.points[i].x, trace.points[i].y), 0.15);
  }
}

TEST(Traffic, ViterbiBeatsNoiseFloor) {
  auto net = tr::make_grid_network(8, 1.0, 5);
  auto trace = tr::make_trace(net, 80, 0.05, 6);
  auto matched = tr::map_match(net, trace.points);
  ASSERT_TRUE(matched.has_value()) << matched.error().message;
  double acc = tr::matching_accuracy(*matched, trace.true_segments);
  EXPECT_GT(acc, 0.8);
}

TEST(Traffic, MapMatchErrors) {
  auto net = tr::make_grid_network(3, 1.0, 1);
  EXPECT_FALSE(tr::map_match(net, {}).has_value());
  tr::MapMatchConfig bad;
  bad.max_candidates = 0;
  EXPECT_FALSE(tr::map_match(net, {{0.5, 0.5, 0.0}}, bad).has_value());
}

TEST(Traffic, DfgPipelineMatchesAndIsDeterministic) {
  auto net = tr::make_grid_network(8, 1.0, 5);
  auto trace = tr::make_trace(net, 60, 0.04, 11);

  auto m = everest::frontend::parse_condrust(tr::mapmatch_condrust_source());
  ASSERT_TRUE(m.has_value()) << m.error().message;

  er::NodeRegistry registry;
  ASSERT_TRUE(tr::register_mapmatch_operators(registry, net));
  std::map<std::string, er::Stream> inputs;
  inputs["points"] = tr::trace_to_stream(trace);

  auto r1 = er::execute_dfg(**m, registry, inputs, 1);
  auto r8 = er::execute_dfg(**m, registry, inputs, 8);
  ASSERT_TRUE(r1.has_value()) << r1.error().message;
  ASSERT_TRUE(r8.has_value());
  EXPECT_EQ(r1->at("best"), r8->at("best"));  // ConDRust determinism

  // Streaming greedy matching is still decent on low noise.
  std::vector<int> matched;
  for (const auto &rec : r1->at("best"))
    matched.push_back(static_cast<int>(rec[0]));
  EXPECT_GT(tr::matching_accuracy(matched, trace.true_segments), 0.6);
}

// The oracle the index must reproduce: every segment's distance, sorted by
// (distance, id). The k nearest are its first k entries.
std::vector<tr::Candidate> brute_force_ranking(
    const std::vector<tr::Segment> &segments, double px, double py) {
  std::vector<tr::Candidate> all;
  for (const auto &s : segments) all.push_back({s.id, s.distance_km(px, py)});
  std::sort(all.begin(), all.end(),
            [](const tr::Candidate &a, const tr::Candidate &b) {
              if (a.distance_km != b.distance_km)
                return a.distance_km < b.distance_km;
              return a.segment < b.segment;
            });
  return all;
}

// Compares ids and distance bits; returns the number of mismatching queries.
int count_index_mismatches(const std::vector<tr::Segment> &segments,
                           const std::vector<std::pair<double, double>> &points,
                           const std::vector<int> &ks) {
  const tr::SegmentIndex index(segments);
  int mismatches = 0;
  for (const auto &[px, py] : points) {
    const auto ranking = brute_force_ranking(segments, px, py);
    for (int k : ks) {
      const auto got = index.nearest(px, py, k);
      const std::vector<tr::Candidate> want(
          ranking.begin(),
          ranking.begin() + std::min<std::ptrdiff_t>(
                                k, static_cast<std::ptrdiff_t>(ranking.size())));
      bool same = got.size() == want.size();
      for (std::size_t i = 0; same && i < got.size(); ++i) {
        same = got[i].segment == want[i].segment &&
               std::bit_cast<std::uint64_t>(got[i].distance_km) ==
                   std::bit_cast<std::uint64_t>(want[i].distance_km);
      }
      if (!same) {
        ADD_FAILURE() << "index differs from the scan at (" << px << ", "
                      << py << "), k=" << k;
        ++mismatches;
      }
    }
  }
  return mismatches;
}

// Points on grid lines and intersections, random points around the
// network, and points far outside its bounding box.
std::vector<std::pair<double, double>> probe_points(double lo, double hi,
                                                    double step,
                                                    std::uint64_t seed) {
  std::vector<std::pair<double, double>> pts;
  everest::support::Pcg32 rng(seed);
  for (double x = lo; x <= hi + 1e-9; x += step) {
    for (double y = lo; y <= hi + 1e-9; y += step) {
      pts.emplace_back(x, y);                             // intersection
      pts.emplace_back(x, rng.uniform(lo - 0.5, hi + 0.5));  // on a line
    }
  }
  for (int i = 0; i < 200; ++i) {
    pts.emplace_back(rng.uniform(lo - 1.0, hi + 1.0),
                     rng.uniform(lo - 1.0, hi + 1.0));
  }
  for (double far : {25.0, 1e3, 1e6, 1e300}) {
    pts.emplace_back(hi + far, rng.uniform(lo, hi));
    pts.emplace_back(lo - far, lo - far);
    pts.emplace_back(rng.uniform(lo, hi), -far);
    pts.emplace_back(far, -far);
  }
  return pts;
}

TEST(Traffic, SegmentIndexMatchesBruteForce) {
  // Seeded grids, including ones whose extent is not a whole number of
  // index cells, with k up to beyond the segment count. The index keeps its
  // best list sorted by insertion, so a query costs O(k) per segment it
  // visits; the 40 x 40 grid (3,280 segments) stops at k = 50.
  for (int n : {1, 3, 8, 40}) {
    for (double cell_km : {1.0, 0.37}) {
      auto net = tr::make_grid_network(n, cell_km,
                                       static_cast<std::uint64_t>(n) + 17);
      const int segs = static_cast<int>(net.segments.size());
      auto pts = probe_points(0.0, n * cell_km, cell_km,
                              static_cast<std::uint64_t>(n) * 31);
      std::vector<int> ks{1, 2, 6, segs, segs + 3};
      if (n == 40) {
        ks = {1, 2, 6, 50};
        // Keep the full scan cheap: every 8th grid probe, plus the random
        // and far-away points at the end.
        std::vector<std::pair<double, double>> some;
        for (std::size_t i = 0; i < pts.size(); ++i)
          if (i % 8 == 0 || i + 216 >= pts.size()) some.push_back(pts[i]);
        pts = std::move(some);
      }
      EXPECT_EQ(count_index_mismatches(net.segments, pts, ks), 0)
          << "grid n=" << n << " cell_km=" << cell_km;
    }
  }

  // A hand-built network: diagonals, zero-length segments, duplicates of
  // the same geometry under other ids, one long diagonal across the rest,
  // and negative coordinates.
  std::vector<tr::Segment> odd;
  auto add = [&](double x1, double y1, double x2, double y2) {
    tr::Segment s;
    s.id = static_cast<int>(odd.size());
    s.x1 = x1;
    s.y1 = y1;
    s.x2 = x2;
    s.y2 = y2;
    odd.push_back(s);
  };
  add(0, 0, 1, 1);
  add(1, 1, 0, 0);      // reversed duplicate
  add(0, 0, 1, 1);      // exact duplicate
  add(0.5, 0.5, 0.5, 0.5);  // zero length, on the diagonal above
  add(0.5, 0.5, 0.5, 0.5);
  add(-2, 3, 4, -3);    // long diagonal
  add(-2, -2, -2, 5);
  add(3, 2, 3.25, 2.1);
  add(3.25, 2.1, 3, 2);
  add(-1.5, 4.5, -1.5, 4.5);
  everest::support::Pcg32 rng(7);
  for (int i = 0; i < 20; ++i) {
    double x = rng.uniform(-2.0, 4.0), y = rng.uniform(-3.0, 5.0);
    add(x, y, x + rng.uniform(-0.7, 0.7), y + rng.uniform(-0.7, 0.7));
  }
  const int segs = static_cast<int>(odd.size());
  EXPECT_EQ(count_index_mismatches(odd, probe_points(-3.0, 5.0, 0.5, 5),
                                   {1, 3, 6, segs, segs + 1}),
            0);

  // An empty network has no candidates; neither has k < 1.
  const tr::SegmentIndex empty({});
  EXPECT_TRUE(empty.nearest(0.0, 0.0, 6).empty());
  const tr::SegmentIndex index(odd);
  EXPECT_TRUE(index.nearest(0.5, 0.5, 0).empty());
  EXPECT_TRUE(index.nearest(0.5, 0.5, INT_MIN).empty());
}

TEST(Traffic, CandidateTiesAreOrderedById) {
  // The four segments meeting at an interior intersection tie exactly.
  auto net = tr::make_grid_network(4, 1.0, 3);
  const tr::SegmentIndex index(net.segments);
  auto cands = index.nearest(2.0, 2.0, 4);
  ASSERT_EQ(cands.size(), 4u);
  for (std::size_t i = 1; i < cands.size(); ++i) {
    EXPECT_EQ(cands[i].distance_km, 0.0);
    EXPECT_LT(cands[i - 1].segment, cands[i].segment);
  }
}

TEST(Traffic, NonFiniteAndHugePointsAreHandled) {
  auto net = tr::make_grid_network(4, 1.0, 1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const tr::SegmentIndex index(net.segments);
  for (auto [x, y] : {std::pair{nan, 0.5}, {0.5, nan}, {inf, 0.5},
                      {-inf, -inf}}) {
    EXPECT_TRUE(index.nearest(x, y, 6).empty());
    auto matched = tr::map_match(net, {{0.5, 0.2, 0.0}, {x, y, 1.0}});
    ASSERT_FALSE(matched.has_value());
    EXPECT_EQ(matched.error().code_enum(),
              everest::support::ErrorCode::InvalidArgument);
  }
  EXPECT_FALSE(tr::map_match({}, {{0.5, 0.2, 0.0}}).has_value());

  // Huge but finite coordinates still match, onto real segments.
  auto far = tr::map_match(
      net, {{1e300, -1e300, 0.0}, {0.5, 0.2, 1.0}, {1.7e308, 1.7e308, 2.0}});
  ASSERT_TRUE(far.has_value()) << far.error().message;
  for (int seg : *far) {
    EXPECT_GE(seg, 0);
    EXPECT_LT(seg, static_cast<int>(net.segments.size()));
  }

  // In the dfg graph a non-finite point has no candidates: an all -1
  // record, so greedy_pick yields -1; its neighbours still match. A point
  // 1e300 km away has candidates, but their emission log-probability
  // underflows to -inf, so greedy_pick's answer is only checked for shape.
  auto m = everest::frontend::parse_condrust(tr::mapmatch_condrust_source());
  ASSERT_TRUE(m.has_value());
  er::NodeRegistry registry;
  ASSERT_TRUE(tr::register_mapmatch_operators(registry, net));
  std::map<std::string, er::Stream> inputs;
  inputs["points"] = {{0.5, 0.2, 0.0}, {nan, 0.3, 1.0}, {inf, -inf, 2.0},
                      {1e300, 1e300, 3.0}, {0.7, 0.1, 4.0}};
  auto out = er::execute_dfg(**m, registry, inputs, 1);
  ASSERT_TRUE(out.has_value()) << out.error().message;
  const auto &best = out->at("best");
  ASSERT_EQ(best.size(), 5u);
  EXPECT_EQ(best[1], er::Record{-1.0});
  EXPECT_EQ(best[2], er::Record{-1.0});
  EXPECT_EQ(best[3].size(), 1u);
  for (std::size_t i : {0u, 4u}) EXPECT_GE(best[i].at(0), 0.0);
}

TEST(Traffic, RegisterRejectsFewerThanOneCandidate) {
  auto net = tr::make_grid_network(3, 1.0, 1);
  for (int k : {0, -1, INT_MIN}) {
    er::NodeRegistry registry;
    tr::MapMatchConfig config;
    config.max_candidates = k;
    auto status = tr::register_mapmatch_operators(registry, net, config);
    ASSERT_FALSE(status) << "k=" << k;
    EXPECT_EQ(status.error().code_enum(),
              everest::support::ErrorCode::InvalidArgument);
    EXPECT_EQ(registry.find_node("candidates"), nullptr);
    EXPECT_EQ(registry.find_fold("viterbi_step"), nullptr);
  }

  // Operators look segments up by id, so ids must be their positions.
  net.segments[2].id = 99;
  er::NodeRegistry registry;
  auto status = tr::register_mapmatch_operators(registry, net);
  ASSERT_FALSE(status);
  EXPECT_EQ(status.error().code_enum(),
            everest::support::ErrorCode::InvalidArgument);
  EXPECT_FALSE(tr::map_match(net, {{0.5, 0.5, 0.0}}).has_value());
}

TEST(Traffic, GmmFitsBimodalSpeeds) {
  // Rush-hour + free-flow speeds form a bimodal distribution.
  auto obs = tr::make_speed_observations(60.0, 10, 0.3, 17);
  std::size_t missing = 0;
  for (double x : obs) missing += std::isnan(x);
  EXPECT_NEAR(static_cast<double>(missing) / obs.size(), 0.3, 0.05);

  auto speed = tr::predict_speed_gmm(obs, 3);
  ASSERT_TRUE(speed.has_value()) << speed.error().message;
  EXPECT_GT(*speed, 20.0);
  EXPECT_LT(*speed, 60.0);
}

TEST(Traffic, GmmValidation) {
  EXPECT_FALSE(tr::fit_gmm({1.0, 2.0}, 3).has_value());
  EXPECT_FALSE(tr::fit_gmm({1.0, 2.0, 3.0, 4.0}, 0).has_value());
  std::vector<double> all_nan(10, std::nan(""));
  EXPECT_FALSE(tr::predict_speed_gmm(all_nan).has_value());
}

TEST(Traffic, GmmRecoverstBimodalComponents) {
  everest::support::Pcg32 rng(9);
  std::vector<double> xs;
  for (int i = 0; i < 400; ++i) xs.push_back(rng.normal(20.0, 2.0));
  for (int i = 0; i < 400; ++i) xs.push_back(rng.normal(55.0, 3.0));
  auto g = tr::fit_gmm(xs, 2);
  ASSERT_TRUE(g.has_value());
  double lo = std::min(g->mean[0], g->mean[1]);
  double hi = std::max(g->mean[0], g->mean[1]);
  EXPECT_NEAR(lo, 20.0, 1.5);
  EXPECT_NEAR(hi, 55.0, 1.5);
  EXPECT_NEAR(g->mixture_mean(), 37.5, 2.0);
}

// --------------------------------------------------------------------- PTDR

TEST(Ptdr, TravelTimeScalesWithRouteLength) {
  auto net = tr::make_grid_network(6, 1.0, 3);
  auto model = pt::make_model(net, 4);
  auto short_route = pt::make_route(net, 5, 7);
  auto long_route = pt::make_route(net, 25, 7);
  auto t_short = pt::monte_carlo(model, short_route, 40, 2000, 9);
  auto t_long = pt::monte_carlo(model, long_route, 40, 2000, 9);
  ASSERT_TRUE(t_short.has_value());
  ASSERT_TRUE(t_long.has_value());
  EXPECT_GT(t_long->mean_min, t_short->mean_min * 3.0);
  EXPECT_GE(t_long->p95_min, t_long->p50_min);
}

TEST(Ptdr, RushHourIsSlower) {
  auto net = tr::make_grid_network(6, 1.0, 3);
  auto model = pt::make_model(net, 4);
  auto route = pt::make_route(net, 15, 7);
  auto night = pt::monte_carlo(model, route, 12, 4000, 5);   // 03:00
  auto rush = pt::monte_carlo(model, route, 70, 4000, 5);    // 17:30
  ASSERT_TRUE(night.has_value());
  ASSERT_TRUE(rush.has_value());
  EXPECT_GT(rush->mean_min, night->mean_min * 1.2);
}

TEST(Ptdr, ConvergesWithSamples) {
  auto net = tr::make_grid_network(5, 1.0, 3);
  auto model = pt::make_model(net, 4);
  auto route = pt::make_route(net, 10, 2);
  auto a = pt::monte_carlo(model, route, 40, 20000, 1);
  auto b = pt::monte_carlo(model, route, 40, 20000, 2);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_NEAR(a->mean_min, b->mean_min, 0.05 * a->mean_min);
}

TEST(Ptdr, Validation) {
  auto net = tr::make_grid_network(3, 1.0, 3);
  auto model = pt::make_model(net, 4);
  EXPECT_FALSE(pt::monte_carlo(model, {{}}, 0, 0, 1).has_value());
  EXPECT_FALSE(pt::monte_carlo(model, {{{9999}}}, 0, 100, 1).has_value());
}

TEST(Ptdr, SamplingKernelSchedules) {
  auto loops = pt::sampling_kernel_ir(1024, 16);
  auto report = everest::hls::schedule_kernel(*loops);
  ASSERT_TRUE(report.has_value()) << report.error().message;
  EXPECT_EQ(report->name, "ptdr_sample");
  ASSERT_EQ(report->stages.size(), 1u);
  EXPECT_EQ(report->stages[0].trip_count, 1024 * 16);
  // Samples iterate innermost, so the per-sample accumulation is NOT a
  // pipeline recurrence: the kernel reaches II = 1 (the FPGA design point).
  EXPECT_FALSE(report->stages[0].has_recurrence);
  EXPECT_EQ(report->stages[0].ii, 1);
  EXPECT_GT(report->output_bytes, 0);
}

// ------------------------------------------------------------------- energy

TEST(Energy, PowerCurveShape) {
  EXPECT_DOUBLE_EQ(en::power_curve_mw(1.0), 0.0);    // below cut-in
  EXPECT_DOUBLE_EQ(en::power_curve_mw(30.0), 0.0);   // beyond cut-out
  EXPECT_DOUBLE_EQ(en::power_curve_mw(15.0), 3.0);   // rated
  double half = en::power_curve_mw(7.5);
  EXPECT_GT(half, 0.0);
  EXPECT_LT(half, 3.0);
  EXPECT_LT(en::power_curve_mw(5.0), half);
}

TEST(Energy, ForecastErrorGrowsWithLead) {
  auto truth = en::simulate_wind(24 * 60, 3);
  auto fc = en::wrf_forecast(truth, 1.0, 4);
  double early_err = 0, late_err = 0;
  int days = 0;
  for (std::size_t h = 0; h + 24 <= truth.size(); h += 24) {
    early_err += std::fabs(fc[h + 1] - truth[h + 1]);
    late_err += std::fabs(fc[h + 23] - truth[h + 23]);
    ++days;
  }
  EXPECT_GT(late_err / days, early_err / days);
}

TEST(Energy, KernelRidgeLearnsSmoothFunction) {
  // y = sin(2x) + 0.5x over [0, 3].
  everest::support::Pcg32 rng(8);
  const std::int64_t n = 80;
  everest::numerics::Tensor x(everest::numerics::Shape{n, 1});
  everest::numerics::Tensor y(everest::numerics::Shape{n});
  for (std::int64_t i = 0; i < n; ++i) {
    double xi = rng.uniform(0.0, 3.0);
    x(i, 0) = xi;
    y(i) = std::sin(2.0 * xi) + 0.5 * xi;
  }
  en::KernelRidge model(1e-4, 2.0);
  ASSERT_TRUE(model.fit(x, y).is_ok());
  for (double xi : {0.5, 1.5, 2.5}) {
    double pred = model.predict(std::vector<double>{xi});
    EXPECT_NEAR(pred, std::sin(2.0 * xi) + 0.5 * xi, 0.1) << xi;
  }
}

TEST(Energy, KernelRidgeRejectsBadShapes) {
  en::KernelRidge model;
  everest::numerics::Tensor x(everest::numerics::Shape{4, 2});
  everest::numerics::Tensor y(everest::numerics::Shape{5});
  EXPECT_FALSE(model.fit(x, y).is_ok());
}

TEST(Energy, ModelBeatsBaselinesInBacktest) {
  auto result = en::backtest(24 * 120, /*ensemble=*/3, /*seed=*/42);
  ASSERT_TRUE(result.has_value()) << result.error().message;
  EXPECT_LT(result->mae_model, result->mae_persistence);
  EXPECT_LT(result->mae_model, result->mae_forecast);
}

TEST(Energy, EnsembleImprovesForecast) {
  auto one = en::backtest(24 * 100, 1, 7);
  auto five = en::backtest(24 * 100, 5, 7);
  ASSERT_TRUE(one.has_value());
  ASSERT_TRUE(five.has_value());
  EXPECT_LT(five->mae_model, one->mae_model * 1.05);  // at worst comparable
  EXPECT_LT(five->mae_forecast, one->mae_forecast);   // raw forecast improves
}

// -------------------------------------------------------------- air quality

TEST(AirQuality, CorrectionImprovesForecast) {
  aq::Config config;
  config.hours = 72;
  config.ensemble_size = 5;
  auto truth = aq::simulate_weather(96, 1);
  aq::WeatherSeries obs(truth.begin(), truth.begin() + 24);
  std::vector<aq::WeatherSeries> members;
  for (int e = 0; e < 5; ++e)
    members.push_back(aq::perturb_forecast(truth, 1.0, 100 + e));

  auto corrected = aq::correct_ensemble(members, obs, 24);
  double raw_rmse = 0, corr_rmse = 0;
  for (std::size_t h = 24; h < 96; ++h) {
    raw_rmse += std::pow(members[0][h].wind_speed_ms - truth[h].wind_speed_ms, 2);
    corr_rmse += std::pow(corrected[h].wind_speed_ms - truth[h].wind_speed_ms, 2);
  }
  EXPECT_LT(corr_rmse, raw_rmse);
}

TEST(AirQuality, DispersionPhysics) {
  aq::Weather calm{5.0, 90.0, 1.0};   // cold, toward receptor, slow
  aq::Weather windy{20.0, 90.0, 10.0};
  aq::Weather away{5.0, 270.0, 1.0};  // blowing away from receptor
  EXPECT_GT(aq::dispersion_index(calm, 100.0),
            aq::dispersion_index(windy, 100.0));
  EXPECT_GT(aq::dispersion_index(calm, 100.0),
            aq::dispersion_index(away, 100.0) * 5.0);
}

TEST(AirQuality, ScenarioProducesDecisions) {
  aq::Config config;
  config.hours = 72;
  auto report = aq::run_scenario(config);
  ASSERT_TRUE(report.has_value()) << report.error().message;
  EXPECT_GT(report->forecast_rmse_speed, 0.0);
  EXPECT_GE(report->cost_keur, 0.0);
  EXPECT_LE(report->reduction_days, 3);
}

TEST(AirQuality, LargerEnsembleLowersAverageCost) {
  // Averaged over many seeds, a larger corrected ensemble makes better
  // reduce/don't-reduce decisions.
  auto avg_cost = [](int ensemble) {
    double total = 0.0;
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
      aq::Config config;
      config.hours = 72;
      config.ensemble_size = ensemble;
      config.seed = 1000 + seed;
      auto r = aq::run_scenario(config);
      EXPECT_TRUE(r.has_value());
      total += r->cost_keur;
    }
    return total / 30.0;
  };
  EXPECT_LE(avg_cost(7), avg_cost(1) * 1.1);
}

TEST(AirQuality, Validation) {
  aq::Config bad;
  bad.hours = 12;
  EXPECT_FALSE(aq::run_scenario(bad).has_value());
  bad.hours = 72;
  bad.ensemble_size = 0;
  EXPECT_FALSE(aq::run_scenario(bad).has_value());
}

// ----------------------------------------------------------------- speednet

TEST(Speednet, ModelImportsAndPredicts) {
  auto model = sn::load_model(42);
  ASSERT_TRUE(model.has_value()) << model.error().message;
  EXPECT_GT(model->parameter_count(), 500u);
  EXPECT_EQ(model->nodes.size(), 8u);

  auto speeds = tr::make_speed_observations(50.0, 1, 0.0, 3);
  std::vector<double> temp(96, 15.0), precip(96, 0.0);
  auto input = sn::make_input(speeds, temp, precip);
  auto pred = sn::predict(*model, input);
  ASSERT_TRUE(pred.has_value()) << pred.error().message;
  EXPECT_EQ(pred->size(), 4u);
}

TEST(Speednet, DeterministicAcrossLoads) {
  auto m1 = sn::load_model(7);
  auto m2 = sn::load_model(7);
  ASSERT_TRUE(m1.has_value());
  ASSERT_TRUE(m2.has_value());
  auto speeds = tr::make_speed_observations(60.0, 1, 0.0, 4);
  std::vector<double> temp(96, 10.0), precip(96, 0.2);
  auto input = sn::make_input(speeds, temp, precip);
  auto p1 = sn::predict(*m1, input);
  auto p2 = sn::predict(*m2, input);
  ASSERT_TRUE(p1.has_value());
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(*p1, *p2);
}

TEST(Speednet, InputValidation) {
  EXPECT_THROW(sn::make_input({1.0}, {2.0}, {3.0}), std::invalid_argument);
}

TEST(Ptdr, RouteChoicePicksFasterAlternative) {
  auto net = tr::make_grid_network(6, 1.0, 3);
  auto model = pt::make_model(net, 4);
  // A short route must beat a long one under any criterion.
  std::vector<pt::Route> alts{pt::make_route(net, 6, 7),
                              pt::make_route(net, 24, 7)};
  auto mean_pick = pt::choose_route(model, alts, 40, 3000, 5,
                                    pt::RoutingCriterion::MeanTime);
  auto p95_pick = pt::choose_route(model, alts, 40, 3000, 5,
                                   pt::RoutingCriterion::P95);
  ASSERT_TRUE(mean_pick.has_value());
  ASSERT_TRUE(p95_pick.has_value());
  EXPECT_EQ(mean_pick->route_index, 0u);
  EXPECT_EQ(p95_pick->route_index, 0u);
  EXPECT_GE(p95_pick->distribution.p95_min, p95_pick->distribution.p50_min);
}

TEST(Ptdr, RiskAverseCriterionCanDisagreeWithMean) {
  // Construct two synthetic single-segment models: route A slightly faster
  // on average but far riskier (high sigma); P95 must prefer B.
  tr::RoadNetwork net = tr::make_grid_network(1, 1.0, 1);
  pt::Model model = pt::make_model(net, 2);
  ASSERT_GE(model.segments.size(), 2u);
  for (int q = 0; q < pt::kIntervalsPerDay; ++q) {
    auto i = static_cast<std::size_t>(q);
    model.segments[0].mu[i] = std::log(52.0);  // fast but volatile
    model.segments[0].sigma[i] = 0.35;
    model.segments[1].mu[i] = std::log(48.0);  // slightly slower, steady
    model.segments[1].sigma[i] = 0.05;
  }
  std::vector<pt::Route> alts{pt::Route{{0}}, pt::Route{{1}}};
  auto mean_pick = pt::choose_route(model, alts, 0, 20000, 11,
                                    pt::RoutingCriterion::MeanTime);
  auto p95_pick = pt::choose_route(model, alts, 0, 20000, 11,
                                   pt::RoutingCriterion::P95);
  ASSERT_TRUE(mean_pick.has_value());
  ASSERT_TRUE(p95_pick.has_value());
  EXPECT_EQ(p95_pick->route_index, 1u);  // risk-averse picks the steady route
  EXPECT_NE(mean_pick->route_index, p95_pick->route_index);
}

TEST(Ptdr, RouteChoiceValidation) {
  auto net = tr::make_grid_network(3, 1.0, 3);
  auto model = pt::make_model(net, 4);
  EXPECT_FALSE(pt::choose_route(model, {}, 0, 100, 1).has_value());
}
