//! The merged campaign database.

use fracas_inject::CampaignResult;
use fracas_npb::Scenario;

/// The phase-four merged database: one [`CampaignResult`] per scenario.
#[derive(Debug, Clone, Default)]
pub struct Database {
    campaigns: Vec<CampaignResult>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Builds a database from campaign results.
    pub fn from_campaigns(campaigns: Vec<CampaignResult>) -> Database {
        Database { campaigns }
    }

    /// Adds one campaign.
    pub fn push(&mut self, result: CampaignResult) {
        self.campaigns.push(result);
    }

    /// All campaigns.
    pub fn iter(&self) -> impl Iterator<Item = &CampaignResult> {
        self.campaigns.iter()
    }

    /// Number of campaigns.
    pub fn len(&self) -> usize {
        self.campaigns.len()
    }

    /// True when no campaigns are loaded.
    pub fn is_empty(&self) -> bool {
        self.campaigns.is_empty()
    }

    /// The campaign of `scenario`, found by its [`Scenario::id`].
    pub fn get(&self, scenario: &Scenario) -> Option<&CampaignResult> {
        let id = scenario.id();
        self.campaigns.iter().find(|c| c.id == id)
    }

    /// Serialises the database as JSON lines (one campaign per line).
    pub fn to_json_lines(&self) -> String {
        let mut s = String::new();
        for c in &self.campaigns {
            s.push_str(&c.to_json());
            s.push('\n');
        }
        s
    }

    /// Parses a JSON-lines database.
    ///
    /// # Errors
    ///
    /// Returns the first serde error for a malformed line.
    pub fn from_json_lines(text: &str) -> Result<Database, serde_json::Error> {
        let mut db = Database::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            db.push(CampaignResult::from_json(line)?);
        }
        Ok(db)
    }
}

impl FromIterator<CampaignResult> for Database {
    fn from_iter<I: IntoIterator<Item = CampaignResult>>(iter: I) -> Database {
        Database {
            campaigns: iter.into_iter().collect(),
        }
    }
}

impl Extend<CampaignResult> for Database {
    fn extend<I: IntoIterator<Item = CampaignResult>>(&mut self, iter: I) {
        self.campaigns.extend(iter);
    }
}
