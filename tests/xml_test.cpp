#include <gtest/gtest.h>

#include "support/error.hpp"
#include "xml/xml.hpp"

namespace microtools::xml {
namespace {

TEST(Xml, ParsesSimpleElement) {
  Document doc = parse("<root>hello</root>");
  EXPECT_EQ(doc.root().name(), "root");
  EXPECT_EQ(doc.root().trimmedText(), "hello");
}

TEST(Xml, ParsesNestedElements) {
  Document doc = parse("<a><b><c>1</c></b><b>2</b></a>");
  const Node& a = doc.root();
  ASSERT_EQ(a.children().size(), 2u);
  EXPECT_EQ(a.children()[0]->child("c")->trimmedText(), "1");
  EXPECT_EQ(a.children()[1]->trimmedText(), "2");
}

TEST(Xml, SelfClosingElement) {
  Document doc = parse("<a><flag/></a>");
  EXPECT_TRUE(doc.root().hasChild("flag"));
  EXPECT_FALSE(doc.root().hasChild("other"));
}

TEST(Xml, Attributes) {
  Document doc = parse(R"(<a x="1" y='two'/>)");
  EXPECT_EQ(doc.root().attribute("x"), "1");
  EXPECT_EQ(doc.root().attribute("y"), "two");
  EXPECT_FALSE(doc.root().attribute("z"));
}

TEST(Xml, DuplicateAttributeRejected) {
  EXPECT_THROW(parse(R"(<a x="1" x="2"/>)"), ParseError);
}

TEST(Xml, AttributeEntities) {
  Document doc = parse(R"(<a x="&lt;&amp;&gt;"/>)");
  EXPECT_EQ(doc.root().attribute("x"), "<&>");
}

TEST(Xml, TextEntities) {
  Document doc = parse("<a>&lt;min&gt; &amp; &quot;max&quot; &apos;</a>");
  EXPECT_EQ(doc.root().trimmedText(), "<min> & \"max\" '");
}

TEST(Xml, NumericCharacterReferences) {
  Document doc = parse("<a>&#65;&#x42;</a>");
  EXPECT_EQ(doc.root().trimmedText(), "AB");
}

TEST(Xml, InvalidEntityRejected) {
  EXPECT_THROW(parse("<a>&nope;</a>"), ParseError);
  EXPECT_THROW(parse("<a>&#xzz;</a>"), ParseError);
}

TEST(Xml, Comments) {
  Document doc = parse("<a><!-- note --><b/><!-- -- tricky --></a>");
  EXPECT_TRUE(doc.root().hasChild("b"));
}

TEST(Xml, Cdata) {
  Document doc = parse("<a><![CDATA[<not-xml> & raw]]></a>");
  EXPECT_EQ(doc.root().trimmedText(), "<not-xml> & raw");
}

TEST(Xml, XmlDeclarationAndDoctype) {
  Document doc = parse(
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      "<!DOCTYPE kernel [<!ELEMENT kernel ANY>]>\n"
      "<kernel/>");
  EXPECT_EQ(doc.root().name(), "kernel");
}

TEST(Xml, ProcessingInstructionSkipped) {
  Document doc = parse("<a><?php echo ?><b/></a>");
  EXPECT_TRUE(doc.root().hasChild("b"));
}

TEST(Xml, MismatchedClosingTagRejected) {
  EXPECT_THROW(parse("<a><b></a></b>"), ParseError);
}

TEST(Xml, UnterminatedElementRejected) {
  EXPECT_THROW(parse("<a><b>"), ParseError);
  EXPECT_THROW(parse("<a"), ParseError);
}

TEST(Xml, ContentAfterRootRejected) {
  EXPECT_THROW(parse("<a/><b/>"), ParseError);
}

TEST(Xml, ErrorsCarryLineNumbers) {
  try {
    parse("<a>\n<b>\n</c>\n</a>");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3u);
  }
}

TEST(Xml, ChildHelpers) {
  Document doc = parse("<k><min>1</min><max>8</max><name>r1</name></k>");
  EXPECT_EQ(doc.root().childInt("min"), 1);
  EXPECT_EQ(doc.root().childInt("max"), 8);
  EXPECT_EQ(doc.root().childText("name"), "r1");
  EXPECT_FALSE(doc.root().childInt("absent"));
  EXPECT_EQ(doc.root().requiredInt("min"), 1);
  EXPECT_THROW(doc.root().requiredInt("absent"), DescriptionError);
  EXPECT_THROW(doc.root().requiredText("absent"), DescriptionError);
}

TEST(Xml, ChildIntRejectsNonInteger) {
  Document doc = parse("<k><min>abc</min></k>");
  EXPECT_THROW(doc.root().childInt("min"), ParseError);
}

TEST(Xml, ChildrenNamedPreservesOrder) {
  Document doc = parse("<k><v>1</v><other/><v>2</v><v>3</v></k>");
  auto values = doc.root().childrenNamed("v");
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0]->trimmedText(), "1");
  EXPECT_EQ(values[2]->trimmedText(), "3");
}

TEST(Xml, MixedTextConcatenates) {
  Document doc = parse("<a>one<b/>two</a>");
  EXPECT_EQ(doc.root().trimmedText(), "onetwo");
}

TEST(Xml, ToStringRoundTrips) {
  const char* source =
      "<description><kernel deep=\"true\"><min>1</min></kernel>"
      "</description>";
  Document doc = parse(source);
  Document again = parse(doc.root().toString());
  EXPECT_EQ(again.root().name(), "description");
  EXPECT_EQ(again.root().child("kernel")->attribute("deep"), "true");
  EXPECT_EQ(again.root().child("kernel")->childInt("min"), 1);
}

TEST(Xml, EscapeCoversSpecials) {
  EXPECT_EQ(escape("<a & 'b' \"c\">"),
            "&lt;a &amp; &apos;b&apos; &quot;c&quot;&gt;");
}

TEST(Xml, ParseFileMissingThrows) {
  EXPECT_THROW(parseFile("/nonexistent/path.xml"), McError);
}

TEST(Xml, WhitespaceAroundRootAccepted) {
  Document doc = parse("\n\n  <a/>  \n");
  EXPECT_EQ(doc.root().name(), "a");
}

// The Figure-6 description from the paper parses intact.
TEST(Xml, PaperFigureSixParses) {
  const char* fig6 = R"(
<kernel>
  <instruction>
    <operation>movaps</operation>
    <memory>
      <register><name>r1</name></register>
      <offset>0</offset>
    </memory>
    <register>
      <phyName>%xmm</phyName>
      <min>0</min>
      <max>8</max>
    </register>
    <swap_after_unroll/>
  </instruction>
  <unrolling><min>1</min><max>8</max></unrolling>
  <induction>
    <register><name>r1</name></register>
    <increment>16</increment>
    <offset>16</offset>
  </induction>
  <induction>
    <register><name>r0</name></register>
    <increment>-1</increment>
    <linked><register><name>r1</name></register></linked>
    <last_induction/>
  </induction>
  <branch_information><label>L6</label><test>jge</test></branch_information>
</kernel>)";
  Document doc = parse(fig6);
  EXPECT_EQ(doc.root().name(), "kernel");
  EXPECT_EQ(doc.root().childrenNamed("induction").size(), 2u);
  const Node* instr = doc.root().child("instruction");
  ASSERT_NE(instr, nullptr);
  EXPECT_TRUE(instr->hasChild("swap_after_unroll"));
  EXPECT_EQ(instr->child("register")->childText("phyName"), "%xmm");
}

// Parameterized sweep: malformed inputs all raise ParseError.
class XmlRejects : public ::testing::TestWithParam<const char*> {};

TEST_P(XmlRejects, Throws) {
  EXPECT_THROW(parse(GetParam()), ParseError);
}

INSTANTIATE_TEST_SUITE_P(
    MalformedCorpus, XmlRejects,
    ::testing::Values("", "   ", "<", "<>", "<a", "<a b></a>", "<a x=1/>",
                      "<a><![CDATA[open</a>", "<a>&unterminated</a>",
                      "<a></b>", "text-only", "<1tag/>",
                      "<a><!-- unterminated </a>"));

// Parameterized sweep: well-formed inputs parse and report the root name.
struct OkCase {
  const char* text;
  const char* root;
};

// gtest_discover_tests names each case after the printed parameter; without
// this printer it would dump the two string addresses, which differ from run
// to run.
void PrintTo(const OkCase& c, std::ostream* os) {
  *os << "{" << ::testing::PrintToString(c.text) << ", "
      << ::testing::PrintToString(c.root) << "}";
}

class XmlAccepts : public ::testing::TestWithParam<OkCase> {};

TEST_P(XmlAccepts, Parses) {
  Document doc = parse(GetParam().text);
  EXPECT_EQ(doc.root().name(), GetParam().root);
}

INSTANTIATE_TEST_SUITE_P(
    WellFormedCorpus, XmlAccepts,
    ::testing::Values(OkCase{"<a/>", "a"}, OkCase{"<a></a>", "a"},
                      OkCase{"<a-b.c_d/>", "a-b.c_d"},
                      OkCase{"<_priv/>", "_priv"},
                      OkCase{"<ns:tag/>", "ns:tag"},
                      OkCase{"<a >spaced</a >", "a"},
                      OkCase{"<a\n x=\"1\"\n/>", "a"}));

}  // namespace
}  // namespace microtools::xml
