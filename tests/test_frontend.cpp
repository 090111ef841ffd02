// Tests for the language frontends: EKL, CFDlang, ConDRust, and the
// ONNX-style model importer.

#include <gtest/gtest.h>

#include "dialects/registry.hpp"
#include "frontend/cfdlang_parser.hpp"
#include "frontend/condrust_parser.hpp"
#include "frontend/ekl_parser.hpp"
#include "frontend/onnx_import.hpp"

namespace ef = everest::frontend;
namespace ei = everest::ir;
namespace en = everest::numerics;

class FrontendTest : public ::testing::Test {
protected:
  void SetUp() override {
    everest::dialects::register_everest_dialects(ctx_);
  }
  ei::Context ctx_;
};

// ------------------------------------------------------------------- EKL

TEST_F(FrontendTest, EklMinimalProgram) {
  auto m = ef::parse_ekl(R"(
kernel scale
index i
input a[i]
b = a[i] * 2
output b
)");
  ASSERT_TRUE(m.has_value()) << m.error().message;
  EXPECT_TRUE(ctx_.verify(**m).is_ok());
  EXPECT_NE((*m)->find_first("ekl.kernel"), nullptr);
  EXPECT_EQ((*m)->find_all("ekl.binary").size(), 1u);
}

TEST_F(FrontendTest, EklSumAndSelect) {
  auto m = ef::parse_ekl(R"(
kernel k
index i, j
input a[i, j]
input t
s = sum(j) select(a[i, j] <= t, a[i, j], t)
output s
)");
  ASSERT_TRUE(m.has_value()) << m.error().message;
  EXPECT_TRUE(ctx_.verify(**m).is_ok());
  EXPECT_EQ((*m)->find_all("ekl.sum").size(), 1u);
  EXPECT_EQ((*m)->find_all("ekl.select").size(), 1u);
  EXPECT_EQ((*m)->find_all("ekl.compare").size(), 1u);
}

TEST_F(FrontendTest, EklStackSyntax) {
  auto m = ef::parse_ekl(R"(
kernel k
index i
input j[i]
pair = [j, j + 1]
output pair
)");
  ASSERT_TRUE(m.has_value()) << m.error().message;
  auto stacks = (*m)->find_all("ekl.stack");
  ASSERT_EQ(stacks.size(), 1u);
  EXPECT_EQ(stacks[0]->num_operands(), 2u);
}

TEST_F(FrontendTest, EklErrors) {
  // Undefined name.
  EXPECT_FALSE(ef::parse_ekl("kernel k\nb = nope\noutput b\n").has_value());
  // No outputs.
  EXPECT_FALSE(ef::parse_ekl("kernel k\nindex i\ninput a[i]\n").has_value());
  // Duplicate definition.
  EXPECT_FALSE(ef::parse_ekl(R"(
kernel k
index i
input a[i]
a = a * 2
output a
)").has_value());
  // Over-subscription.
  EXPECT_FALSE(ef::parse_ekl(R"(
kernel k
index i, j
input a[i]
b = a[i, j]
output b
)").has_value());
  // Assignment to an index.
  EXPECT_FALSE(ef::parse_ekl(R"(
kernel k
index i
input a[i]
i = a
output a
)").has_value());
}

TEST_F(FrontendTest, EklFig3ParsesAndVerifies) {
  // The paper's Fig. 3 kernel, as shipped in the RRTMG use case.
  auto m = ef::parse_ekl(R"(
kernel fig3
index x, g, bnd, t, p, e
input pres[x]
input strato
input bnd_to_flav[s, bnd]
input j_T[x]
input j_p[x]
input j_eta[f, x]
input r_mix[f, x, e]
input f_major[f, x, t, p, e]
input k_major[T, P, H, g]
i_strato = select(pres[x] <= strato, 1, 0)
i_flav = bnd_to_flav[i_strato, bnd]
i_T = [j_T, j_T + 1]
i_eta = [j_eta[i_flav, x], j_eta[i_flav, x] + 1]
i_p = [j_p + i_strato, j_p + i_strato + 1]
tau_abs = r_mix[i_flav, x, e] * f_major[i_flav, x, t, p, e] * k_major[i_T[x, t], i_p[x, p], i_eta[x, bnd, e], g]
tau = sum(t, p, e) tau_abs
output tau
)");
  ASSERT_TRUE(m.has_value()) << m.error().message;
  EXPECT_TRUE(ctx_.verify(**m).is_ok()) << ctx_.verify(**m).message();
  EXPECT_EQ((*m)->find_all("ekl.stack").size(), 3u);
  EXPECT_EQ((*m)->find_all("ekl.gather").size(), 10u);
}

TEST_F(FrontendTest, EklLineCount) {
  EXPECT_EQ(ef::count_ekl_lines("# comment\na = 1\n\nb = 2\n"), 2u);
}

// ---------------------------------------------------------------- CFDlang

TEST_F(FrontendTest, CfdlangMatmulProgram) {
  auto m = ef::parse_cfdlang(R"(
program mm
input A : [4, 5]
input B : [5, 6]
output C = contract(outer(A, B), 1, 2)
)");
  ASSERT_TRUE(m.has_value()) << m.error().message;
  EXPECT_TRUE(ctx_.verify(**m).is_ok()) << ctx_.verify(**m).message();
  auto contracts = (*m)->find_all("cfdlang.contract");
  ASSERT_EQ(contracts.size(), 1u);
  EXPECT_EQ(contracts[0]->result(0)->type().str(), "tensor<4x6xf64>");
}

TEST_F(FrontendTest, CfdlangErrors) {
  EXPECT_FALSE(ef::parse_cfdlang("program p\ninput A : [2]\n").has_value());
  EXPECT_FALSE(
      ef::parse_cfdlang("program p\noutput C = undefined_name\n").has_value());
  // Contraction dims of different extents.
  EXPECT_FALSE(ef::parse_cfdlang(R"(
program p
input A : [2, 3]
output C = contract(A, 0, 1)
)").has_value());
}

TEST_F(FrontendTest, CfdlangTranspose) {
  auto m = ef::parse_cfdlang(R"(
program t
input A : [2, 3]
output B = transpose(A, 1, 0)
)");
  ASSERT_TRUE(m.has_value()) << m.error().message;
  auto ops = (*m)->find_all("cfdlang.transpose");
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0]->result(0)->type().str(), "tensor<3x2xf64>");
}

TEST_F(FrontendTest, CfdlangTransposeRejectsBadPermutations) {
  // Regression: entries were used as indices unchecked, so an out-of-range
  // entry read past the operand's shape.
  for (const char *perm : {"1, 5", "0, 0", "-1, 0", "1, 1", "0, 1, 2"}) {
    auto m = ef::parse_cfdlang(
        std::string("program t\ninput A : [2, 3]\noutput B = transpose(A, ") +
        perm + ")\n");
    ASSERT_FALSE(m.has_value()) << perm;
    EXPECT_EQ(m.error().code_enum(), everest::support::ErrorCode::InvalidArgument)
        << perm;
  }
}

// --------------------------------------------------------------- ConDRust

TEST_F(FrontendTest, CondrustFig4MapMatching) {
  auto m = ef::parse_condrust(R"(
// Fig. 4: map matching a single element
fn map_match(points: Stream<Point>) -> Stream<Seg> {
    #[fpga]
    let cands = candidates(points);
    let scored = emission_score(cands, points);
    let path = fold viterbi_step(scored);
    let out = decode(path);
    return out;
}
)");
  ASSERT_TRUE(m.has_value()) << m.error().message;
  EXPECT_TRUE(ctx_.verify(**m).is_ok()) << ctx_.verify(**m).message();
  auto nodes = (*m)->find_all("dfg.node");
  EXPECT_EQ(nodes.size(), 3u);
  EXPECT_EQ((*m)->find_all("dfg.fold").size(), 1u);
  // The #[fpga] attribute landed on `candidates`.
  bool found = false;
  for (auto *n : nodes) {
    if (n->attr_string("callee") == "candidates") {
      EXPECT_EQ(n->attr_string("placement"), "fpga");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(FrontendTest, CondrustOwnershipRebindRejected) {
  auto m = ef::parse_condrust(R"(
fn f(xs: Stream<f64>) -> Stream<f64> {
    let a = g(xs);
    let a = h(a);
    return a;
}
)");
  EXPECT_FALSE(m.has_value());
}

TEST_F(FrontendTest, CondrustErrors) {
  EXPECT_FALSE(ef::parse_condrust("let a = f(x);").has_value());  // no fn
  EXPECT_FALSE(ef::parse_condrust(R"(
fn f(xs: Stream<f64>) -> Stream<f64> {
    let a = g(nope);
    return a;
}
)").has_value());
  EXPECT_FALSE(ef::parse_condrust(R"(
fn f(xs: Stream<f64>) -> Stream<f64> {
    let a = g(xs);
}
)").has_value());  // no return
}

// ------------------------------------------------------------------- ONNX

TEST_F(FrontendTest, OnnxImportAndRun) {
  const char *json = R"({
    "name": "tiny",
    "inputs": [{"name": "x", "shape": [2]}],
    "initializers": [
      {"name": "W", "shape": [2, 2], "data": [1, 0, 0, 1]},
      {"name": "b", "shape": [2], "data": [0.5, -0.5]}
    ],
    "nodes": [
      {"op": "Gemm", "name": "fc", "inputs": ["x", "W", "b"], "output": "y"},
      {"op": "Relu", "name": "act", "inputs": ["y"], "output": "z"}
    ],
    "outputs": ["z"]
  })";
  auto model = ef::import_onnx_json(json);
  ASSERT_TRUE(model.has_value()) << model.error().message;
  EXPECT_EQ(model->parameter_count(), 6u);

  std::map<std::string, en::Tensor> inputs;
  inputs.emplace("x", en::Tensor(en::Shape{2}, std::vector<double>{1.0, -2.0}));
  auto out = ef::run_onnx(*model, inputs);
  ASSERT_TRUE(out.has_value()) << out.error().message;
  const auto &z = out->at("z");
  EXPECT_DOUBLE_EQ(z(0), 1.5);   // 1 + 0.5
  EXPECT_DOUBLE_EQ(z(1), 0.0);   // relu(-2.5)
}

TEST_F(FrontendTest, OnnxConvPipeline) {
  // Conv1D (identity kernel) -> MaxPool1D -> Flatten.
  const char *json = R"({
    "name": "conv",
    "inputs": [{"name": "x", "shape": [1, 4]}],
    "initializers": [
      {"name": "w", "shape": [1, 1, 1], "data": [2.0]}
    ],
    "nodes": [
      {"op": "Conv1D", "inputs": ["x", "w"], "output": "c"},
      {"op": "MaxPool1D", "inputs": ["c"], "output": "p", "attrs": {"window": 2}},
      {"op": "Flatten", "inputs": ["p"], "output": "f"}
    ],
    "outputs": ["f"]
  })";
  auto model = ef::import_onnx_json(json);
  ASSERT_TRUE(model.has_value()) << model.error().message;
  std::map<std::string, en::Tensor> inputs;
  inputs.emplace("x",
                 en::Tensor(en::Shape{1, 4}, std::vector<double>{1, 3, 2, 5}));
  auto out = ef::run_onnx(*model, inputs);
  ASSERT_TRUE(out.has_value()) << out.error().message;
  const auto &f = out->at("f");
  ASSERT_EQ(f.size(), 2);
  EXPECT_DOUBLE_EQ(f(0), 6.0);   // max(2, 6)
  EXPECT_DOUBLE_EQ(f(1), 10.0);  // max(4, 10)
}

TEST_F(FrontendTest, OnnxErrors) {
  EXPECT_FALSE(ef::import_onnx_json("{").has_value());
  EXPECT_FALSE(ef::import_onnx_json(R"({"nodes": [], "outputs": []})")
                   .has_value());
  // Data/shape mismatch.
  EXPECT_FALSE(ef::import_onnx_json(R"({
    "inputs": [], "outputs": ["y"],
    "initializers": [{"name": "w", "shape": [3], "data": [1, 2]}],
    "nodes": [{"op": "Relu", "inputs": ["w"], "output": "y"}]
  })").has_value());
}
