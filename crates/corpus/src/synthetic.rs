//! Deterministic synthetic corpus generation.
//!
//! The generator reproduces the statistical shape reported in §7.3: a small
//! head of very frequent symbols (the most frequent one appearing thousands of
//! times) and a long tail in which 98 % of declarations have fewer than 100
//! uses. A curated list of genuinely common Java API symbols occupies the head
//! so that the "All" weight variant behaves like the paper's: snippets built
//! from everyday API calls are preferred over exotic ones.

use insynth_apimodel::{extract, ApiModel, ProgramPoint};
use insynth_core::DeclKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{table3_projects, Corpus};

/// The maximum usage count, matching the paper's most-used symbol (`&&`,
/// 5162 occurrences).
const MAX_USES: u64 = 5162;

/// Symbols that receive the head of the distribution, most frequent first.
/// They use the declaration-name encoding of `insynth_apimodel::scope`.
const POPULAR: &[&str] = &[
    "PrintStream#println",
    "String#length",
    "new ArrayList",
    "ArrayList#add",
    "Object#toString",
    "System.out@",
    "HashMap#put",
    "HashMap#get",
    "new File",
    "StringBuilder#append",
    "new StringBuilder",
    "ArrayList#get",
    "ArrayList#size",
    "String#substring",
    "new FileInputStream",
    "new BufferedReader",
    "new InputStreamReader",
    "BufferedReader#readLine",
    "new FileOutputStream",
    "new FileReader",
    "new BufferedInputStream",
    "new FileWriter",
    "new BufferedWriter",
    "new PrintWriter",
    "new Thread",
    "Integer.parseInt",
    "String.valueOf",
    "new BufferedOutputStream",
    "new DataInputStream",
    "new DataOutputStream",
    "new ObjectInputStream",
    "new ObjectOutputStream",
    "new PrintStream",
    "new StringReader",
    "new StringWriter",
    "new ByteArrayInputStream",
    "new ByteArrayOutputStream",
    "new JButton",
    "new JPanel",
    "new JLabel",
    "new JFrame",
    "Container#add",
    "new URL",
    "new Socket",
    "new ServerSocket",
    "new DatagramSocket",
    "new Timer",
    "new ImageIcon",
    "new JCheckBox",
    "new JTextArea",
    "new JTable",
    "new JTree",
    "new GridBagConstraints",
    "new GridBagLayout",
    "new JToggleButton",
    "new JFormattedTextField",
    "new JWindow",
    "new JViewport",
    "new TransferHandler",
    "new GroupLayout",
    "new DefaultBoundedRangeModel",
    "new DisplayMode",
    "new Point",
    "new AWTPermission",
    "new SequenceInputStream",
    "new StreamTokenizer",
    "new LineNumberReader",
    "new PipedReader",
    "new PipedWriter",
    "Container#getLayout",
    "new FilterTypeTreeTraverser",
    "new TreeWrapper",
];

/// Generates a deterministic synthetic corpus over every declaration of the
/// model.
///
/// * Curated popular symbols get Zipf-ranked counts starting at `MAX_USES` (5,162).
/// * Every other declaration gets a small tail count (mostly below 100).
/// * The paper's overall most frequent symbol `&&` is recorded as well, so
///   that the corpus statistics binary can reproduce the §7.3 numbers.
pub fn synthetic_corpus(model: &ApiModel, seed: u64) -> Corpus {
    let mut corpus = Corpus::new(table3_projects());
    let mut rng = StdRng::seed_from_u64(seed);

    // The scala operator the paper singles out as the most used declaration.
    corpus.record("&&", MAX_USES);

    for (rank, name) in POPULAR.iter().enumerate() {
        // Zipf-like head: max / (rank + 2) keeps the head strictly below `&&`.
        let count = MAX_USES / (rank as u64 + 2);
        corpus.record(*name, count.max(120));
    }

    // Long tail: every declaration of the model gets a small count.
    let mut point = ProgramPoint::new();
    for package in model.packages() {
        point = point.with_import(package.name.clone());
    }
    let env = extract(model, &point);
    for decl in env.iter() {
        if decl.kind != DeclKind::Imported {
            continue;
        }
        if corpus.frequency(&decl.name) > 0 {
            continue;
        }
        // Mostly tiny counts, occasionally up to ~90 uses.
        let count = if rng.gen_bool(0.15) {
            rng.gen_range(20..90)
        } else {
            rng.gen_range(0..15)
        };
        corpus.record(decl.name.clone(), count);
    }

    corpus
}

#[cfg(test)]
mod tests {
    use super::*;
    use insynth_apimodel::javaapi;

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let model = javaapi::standard_model();
        let a = synthetic_corpus(&model, 7);
        let b = synthetic_corpus(&model, 7);
        assert_eq!(a.total_uses(), b.total_uses());
        assert_eq!(a.total_declarations(), b.total_declarations());
        assert_eq!(a.frequency("new JButton"), b.frequency("new JButton"));
    }

    #[test]
    fn statistics_match_the_papers_shape() {
        let model = javaapi::standard_model();
        let corpus = synthetic_corpus(&model, 42);
        // Thousands of declarations, tens of thousands of uses.
        assert!(corpus.total_declarations() > 1000);
        assert!(corpus.total_uses() > 20_000);
        // The head is `&&` with exactly the paper's count.
        assert_eq!(corpus.max_entry().unwrap().1, 5162);
        // The overwhelming majority of symbols are rare.
        assert!(corpus.fraction_below(100) > 0.9);
    }

    #[test]
    fn popular_constructors_beat_obscure_ones() {
        let model = javaapi::standard_model();
        let corpus = synthetic_corpus(&model, 42);
        assert!(corpus.frequency("new BufferedReader") > 100);
        assert!(corpus.frequency("new BufferedReader") > corpus.frequency("new CharArrayReader"));
        assert!(
            corpus.frequency("new FileInputStream") > corpus.frequency("new PushbackInputStream")
        );
    }

    #[test]
    fn different_seeds_change_only_the_tail() {
        let model = javaapi::standard_model();
        let a = synthetic_corpus(&model, 1);
        let b = synthetic_corpus(&model, 2);
        // Head counts are rank-determined, not random.
        assert_eq!(a.frequency("new JButton"), b.frequency("new JButton"));
        assert_eq!(a.frequency("&&"), b.frequency("&&"));
    }
}
