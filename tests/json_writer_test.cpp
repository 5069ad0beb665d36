// Tests for the streaming JSON writer behind every exported document
// (c2sl-metrics-v1, c2sl-trace-v1, c2sl-bench-v1): nesting, separators and
// escaping.
#include <gtest/gtest.h>

#include <string>

#include "util/json_writer.h"

namespace c2sl {
namespace {

TEST(JsonWriter, NestedDocumentsAndEscaping) {
  JsonWriter w;
  w.begin_object();
  w.field("name", "a\"b\\c\n");
  w.field("n", int64_t{-3});
  w.field("ok", true);
  w.key("arr").begin_array().value(int64_t{1}).value(int64_t{2}).end_array();
  w.key("inner").begin_object().field("x", 1.5).end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"a\\\"b\\\\c\\n\",\"n\":-3,\"ok\":true,"
            "\"arr\":[1,2],\"inner\":{\"x\":1.5}}");
}

// Control characters below 0x20 must never reach the output raw — a label or
// string key containing one would emit invalid JSON that any json.load
// rejects. Common ones use the short escapes; the rest get \u00XX.
// Round-trip shape is pinned byte-for-byte.
TEST(JsonWriter, ControlCharactersEscapedAsUnicode) {
  JsonWriter w;
  w.begin_object();
  w.field("label", "a\x01" "b\x1f" "c\td\ne\rf");
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"label\":\"a\\u0001b\\u001fc\\td\\ne\\rf\"}");

  // Keys are escaped through the same path as values.
  JsonWriter wk;
  wk.begin_object();
  wk.field("bad\x02key", int64_t{1});
  wk.end_object();
  EXPECT_EQ(wk.str(), "{\"bad\\u0002key\":1}");

  // Every byte below 0x20 is covered — none may appear raw in the output.
  std::string all;
  for (char c = 1; c < 0x20; ++c) all += c;
  JsonWriter wa;
  wa.begin_object();
  wa.field("all", all);
  wa.end_object();
  for (char c = 1; c < 0x20; ++c) {
    EXPECT_EQ(wa.str().find(c), std::string::npos)
        << "raw control byte " << static_cast<int>(c) << " leaked into JSON";
  }
}

TEST(JsonWriter, ArraysOfObjects) {
  JsonWriter w;
  w.begin_array();
  w.begin_object().field("a", int64_t{1}).end_object();
  w.begin_object().field("b", int64_t{2}).end_object();
  w.end_array();
  EXPECT_EQ(w.str(), "[{\"a\":1},{\"b\":2}]");
}

}  // namespace
}  // namespace c2sl
