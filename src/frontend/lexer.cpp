#include "frontend/lexer.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "common/error.hpp"

namespace catt::frontend {

namespace {

/// Multi-character operators, longest-match-first.
const char* kOps[] = {
    "<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=",
    "%=",  "++",  "--",
};

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

class Cursor {
 public:
  explicit Cursor(const std::string& s) : s_(s) {}

  bool done() const { return pos_ >= s_.size(); }
  char peek(std::size_t off = 0) const {
    return pos_ + off < s_.size() ? s_[pos_ + off] : '\0';
  }
  char advance() {
    char c = s_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }
  bool match(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') {
      if (peek(n) != lit[n]) return false;
      ++n;
    }
    for (std::size_t i = 0; i < n; ++i) advance();
    return true;
  }

  int line() const { return line_; }
  int col() const { return col_; }

 private:
  const std::string& s_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

}  // namespace

std::vector<Token> lex(const std::string& source) {
  std::vector<Token> out;
  Cursor c(source);

  while (!c.done()) {
    const int line = c.line();
    const int col = c.col();
    const char ch = c.peek();

    if (std::isspace(static_cast<unsigned char>(ch))) {
      c.advance();
      continue;
    }

    // Comments (and //@ directives).
    if (ch == '/' && c.peek(1) == '/') {
      c.advance();
      c.advance();
      std::string body;
      while (!c.done() && c.peek() != '\n') body += c.advance();
      if (!body.empty() && body[0] == '@') {
        Token t;
        t.kind = TokKind::kDirective;
        t.text = body.substr(1);
        t.line = line;
        t.col = col;
        out.push_back(std::move(t));
      }
      continue;
    }
    if (ch == '/' && c.peek(1) == '*') {
      c.advance();
      c.advance();
      bool closed = false;
      while (!c.done()) {
        if (c.peek() == '*' && c.peek(1) == '/') {
          c.advance();
          c.advance();
          closed = true;
          break;
        }
        c.advance();
      }
      if (!closed) throw ParseError("unterminated block comment", line, col);
      continue;
    }

    // Numeric literals: ints, and floats with '.', exponent, or f suffix.
    if (std::isdigit(static_cast<unsigned char>(ch)) ||
        (ch == '.' && std::isdigit(static_cast<unsigned char>(c.peek(1))))) {
      std::string num;
      bool is_float = false;
      while (!c.done()) {
        char d = c.peek();
        if (std::isdigit(static_cast<unsigned char>(d))) {
          num += c.advance();
        } else if (d == '.' ) {
          is_float = true;
          num += c.advance();
        } else if (d == 'e' || d == 'E') {
          is_float = true;
          num += c.advance();
          if (c.peek() == '+' || c.peek() == '-') num += c.advance();
        } else if (d == 'f' || d == 'F') {
          is_float = true;
          c.advance();
          break;
        } else if (d == 'x' || d == 'X') {
          // Hex int literal.
          num += c.advance();
          while (std::isxdigit(static_cast<unsigned char>(c.peek()))) num += c.advance();
          break;
        } else {
          break;
        }
      }
      Token t;
      t.line = line;
      t.col = col;
      if (is_float) {
        t.kind = TokKind::kFloatLit;
        t.fval = std::strtod(num.c_str(), nullptr);
      } else {
        t.kind = TokKind::kIntLit;
        char* end = nullptr;
        errno = 0;
        t.ival = std::strtoll(num.c_str(), &end, 0);
        if (*end != '\0') throw ParseError("malformed integer literal '" + num + "'", line, col);
        if (errno == ERANGE) {
          throw ParseError("integer literal '" + num + "' out of range", line, col);
        }
      }
      out.push_back(std::move(t));
      continue;
    }

    if (ident_start(ch)) {
      std::string id;
      while (!c.done() && ident_char(c.peek())) id += c.advance();
      Token t;
      t.kind = TokKind::kIdent;
      t.text = std::move(id);
      t.line = line;
      t.col = col;
      out.push_back(std::move(t));
      continue;
    }

    // Multi-char operators.
    bool matched = false;
    for (const char* op : kOps) {
      if (c.match(op)) {
        Token t;
        t.kind = TokKind::kPunct;
        t.text = op;
        t.line = line;
        t.col = col;
        out.push_back(std::move(t));
        matched = true;
        break;
      }
    }
    if (matched) continue;

    // Single-char punctuation.
    static const std::string kSingle = "+-*/%<>=!&|(){}[];,.";
    if (kSingle.find(ch) != std::string::npos) {
      Token t;
      t.kind = TokKind::kPunct;
      t.text = std::string(1, c.advance());
      t.line = line;
      t.col = col;
      out.push_back(std::move(t));
      continue;
    }

    throw ParseError(std::string("unexpected character '") + ch + "'", line, col);
  }

  Token eof;
  eof.kind = TokKind::kEof;
  eof.line = c.line();
  eof.col = c.col();
  out.push_back(std::move(eof));
  return out;
}

}  // namespace catt::frontend
