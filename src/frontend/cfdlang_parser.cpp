#include "frontend/cfdlang_parser.hpp"

#include <cctype>
#include <cstdlib>
#include <map>

#include "ir/builder.hpp"
#include "support/strings.hpp"

namespace everest::frontend {

namespace {

using ir::Attribute;
using ir::Operation;
using ir::Type;
using ir::Value;
using support::Error;
using support::Expected;

/// Computes the result shape of cfdlang ops from operand shapes.
std::vector<std::int64_t> dims_of(const Value *v) {
  return v->type().is_tensor() ? v->type().dims()
                               : std::vector<std::int64_t>{};
}

Type tensor_type(std::vector<std::int64_t> dims) {
  if (dims.empty()) return Type::floating(64);
  return Type::tensor(std::move(dims), Type::floating(64));
}

class CfdParser {
public:
  explicit CfdParser(std::string_view text) : text_(text) {}

  Expected<std::shared_ptr<ir::Module>> run() {
    auto module = std::make_shared<ir::Module>();
    std::string name = "cfd";
    auto lines = support::split(text_, '\n');

    // First pass finds the program name.
    for (const auto &raw : lines) {
      auto line = support::trim(raw);
      if (support::starts_with(line, "program")) {
        name = std::string(support::trim(line.substr(7)));
        break;
      }
    }

    Operation *program =
        Operation::create(module->arena(), ir::Symbol("cfdlang.program"), {},
                          {}, {{"sym_name", Attribute(name)}}, 1);
    ir::Block &body = program->region(0).add_block();
    module->body().attach(program);
    builder_ = std::make_unique<ir::OpBuilder>(&body);

    for (const auto &raw : lines) {
      auto line = support::trim(raw);
      if (line.empty() || line[0] == '#' || support::starts_with(line, "program"))
        continue;
      if (auto s = parse_line(line); !s) return s.error();
    }
    if (!saw_output_) return Error::invalid_argument("cfdlang: program has no output");
    return module;
  }

private:
  Expected<bool> parse_line(std::string_view line) {
    if (support::starts_with(line, "input ")) {
      auto colon = line.find(':');
      if (colon == std::string_view::npos)
        return Error::invalid_argument("cfdlang: input needs ': [dims]'");
      std::string id(support::trim(line.substr(6, colon - 6)));
      auto lb = line.find('[', colon);
      auto rb = line.find(']', colon);
      if (lb == std::string_view::npos || rb == std::string_view::npos)
        return Error::invalid_argument("cfdlang: malformed shape for input " + id);
      std::vector<std::int64_t> dims;
      for (auto &tok : support::split(line.substr(lb + 1, rb - lb - 1), ',')) {
        auto t = support::trim(tok);
        if (t.empty()) continue;
        dims.push_back(std::strtoll(std::string(t).c_str(), nullptr, 10));
      }
      symbols_[id] = builder_->create_value("cfdlang.input", {},
                                            tensor_type(std::move(dims)),
                                            {{"name", Attribute(id)}});
      return true;
    }

    bool is_output = support::starts_with(line, "output ");
    if (is_output) line = support::trim(line.substr(7));

    auto eq = line.find('=');
    if (eq == std::string_view::npos)
      return Error::invalid_argument("cfdlang: expected assignment: " + std::string(line));
    std::string id(support::trim(line.substr(0, eq)));
    pos_text_ = std::string(support::trim(line.substr(eq + 1)));
    pos_ = 0;
    auto value = parse_expr();
    if (!value) return value.error();
    symbols_[id] = *value;
    if (is_output) {
      builder_->create("cfdlang.output", {*value}, {},
                       {{"name", Attribute(id)}});
      saw_output_ = true;
    }
    return true;
  }

  void skip_ws() {
    while (pos_ < pos_text_.size() &&
           std::isspace(static_cast<unsigned char>(pos_text_[pos_])))
      ++pos_;
  }

  std::string read_ident() {
    skip_ws();
    std::size_t start = pos_;
    while (pos_ < pos_text_.size() &&
           (std::isalnum(static_cast<unsigned char>(pos_text_[pos_])) ||
            pos_text_[pos_] == '_'))
      ++pos_;
    return pos_text_.substr(start, pos_ - start);
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < pos_text_.size() && pos_text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Expected<std::int64_t> read_int() {
    skip_ws();
    std::size_t start = pos_;
    while (pos_ < pos_text_.size() &&
           std::isdigit(static_cast<unsigned char>(pos_text_[pos_])))
      ++pos_;
    if (start == pos_) return Error::invalid_argument("cfdlang: expected integer");
    return static_cast<std::int64_t>(
        std::strtoll(pos_text_.substr(start, pos_ - start).c_str(), nullptr, 10));
  }

  Expected<Value *> parse_expr() {
    std::string head = read_ident();
    if (head.empty()) return Error::invalid_argument("cfdlang: expected expression");

    if (head == "outer" || head == "add") {
      if (!consume('(')) return Error::invalid_argument("cfdlang: expected '('");
      auto a = parse_expr();
      if (!a) return a;
      if (!consume(',')) return Error::invalid_argument("cfdlang: expected ','");
      auto b = parse_expr();
      if (!b) return b;
      if (!consume(')')) return Error::invalid_argument("cfdlang: expected ')'");
      if (head == "add") {
        if ((*a)->type() != (*b)->type())
          return Error::invalid_argument("cfdlang: add requires matching shapes");
        return builder_->create_value("cfdlang.add", {*a, *b}, (*a)->type());
      }
      auto da = dims_of(*a);
      auto db = dims_of(*b);
      da.insert(da.end(), db.begin(), db.end());
      return builder_->create_value("cfdlang.outer", {*a, *b},
                                    tensor_type(std::move(da)));
    }

    if (head == "contract") {
      if (!consume('(')) return Error::invalid_argument("cfdlang: expected '('");
      auto e = parse_expr();
      if (!e) return e;
      std::vector<std::int64_t> pairs;
      while (consume(',')) {
        auto i = read_int();
        if (!i) return i.error();
        pairs.push_back(*i);
      }
      if (!consume(')')) return Error::invalid_argument("cfdlang: expected ')'");
      if (pairs.size() % 2 != 0 || pairs.empty())
        return Error::invalid_argument("cfdlang: contract needs dim pairs");
      auto dims = dims_of(*e);
      std::vector<bool> drop(dims.size(), false);
      for (std::size_t k = 0; k < pairs.size(); k += 2) {
        auto i = static_cast<std::size_t>(pairs[k]);
        auto j = static_cast<std::size_t>(pairs[k + 1]);
        if (i >= dims.size() || j >= dims.size() || dims[i] != dims[j])
          return Error::invalid_argument("cfdlang: invalid contraction dims");
        drop[i] = drop[j] = true;
      }
      std::vector<std::int64_t> out;
      for (std::size_t d = 0; d < dims.size(); ++d) {
        if (!drop[d]) out.push_back(dims[d]);
      }
      return builder_->create_value("cfdlang.contract", {*e},
                                    tensor_type(std::move(out)),
                                    {{"pairs", Attribute::int_array(pairs)}});
    }

    if (head == "transpose") {
      if (!consume('(')) return Error::invalid_argument("cfdlang: expected '('");
      auto e = parse_expr();
      if (!e) return e;
      std::vector<std::int64_t> perm;
      while (consume(',')) {
        auto i = read_int();
        if (!i) return i.error();
        perm.push_back(*i);
      }
      if (!consume(')')) return Error::invalid_argument("cfdlang: expected ')'");
      auto dims = dims_of(*e);
      if (perm.size() != dims.size())
        return Error::invalid_argument("cfdlang: transpose perm rank mismatch");
      std::vector<bool> seen(dims.size(), false);
      for (std::int64_t d : perm) {
        if (d < 0 || static_cast<std::size_t>(d) >= dims.size() ||
            seen[static_cast<std::size_t>(d)])
          return Error::invalid_argument(
              "cfdlang: transpose perm must be a permutation of [0, rank)");
        seen[static_cast<std::size_t>(d)] = true;
      }
      std::vector<std::int64_t> out(dims.size());
      for (std::size_t d = 0; d < perm.size(); ++d)
        out[d] = dims[static_cast<std::size_t>(perm[d])];
      return builder_->create_value("cfdlang.transpose", {*e},
                                    tensor_type(std::move(out)),
                                    {{"perm", Attribute::int_array(perm)}});
    }

    auto it = symbols_.find(head);
    if (it == symbols_.end())
      return Error::invalid_argument("cfdlang: undefined name '" + head + "'");
    return it->second;
  }

  std::string_view text_;
  std::unique_ptr<ir::OpBuilder> builder_;
  std::map<std::string, Value *> symbols_;
  std::string pos_text_;
  std::size_t pos_ = 0;
  bool saw_output_ = false;
};

}  // namespace

Expected<std::shared_ptr<ir::Module>> parse_cfdlang(std::string_view text) {
  return CfdParser(text).run();
}

}  // namespace everest::frontend
